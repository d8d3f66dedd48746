"""The closed-loop load generator: one thread, whole cycles of experiments.

The generator keeps ``window`` experiments outstanding: it submits the next
request when the oldest one has returned.  With ``window == 1`` that is the
researcher who presses "Run Experiment" and waits; with ``window == 4`` over a
pool of 2 the queue always holds work.

A run is a number of whole cycles of the workload's request mix, so every
cycle did the same work and per-cycle medians compare between runs of
different length.  The measured window starts cycles until ``seconds`` have
passed (the driver's cap on total run time leaves no room for a count sized
on a quiet machine to overrun on a busy one); the warm-up and ``--quick``
runs are a fixed count.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from benchmarks.ladder.workloads import Workload, submit


@dataclass
class Sample:
    """One experiment as the generator saw it."""

    key: str
    cycle: int
    job_id: str
    submitted: float
    returned: float
    outcome: Any  # the ExperimentResult

    @property
    def latency(self) -> float:
        return self.returned - self.submitted


@dataclass
class Window:
    """A measured run of whole cycles."""

    samples: list[Sample]
    cpu_seconds: float
    #: Wall seconds between the returns that close consecutive cycles.
    cycle_walls: list[float]


#: A timed window never stops before this many cycles.
MIN_CYCLES = 3


def run_cycles(
    service, workload: Workload, cycles: int | None = None, seconds: float = 0.0
) -> Window:
    """Run ``cycles`` cycles or, without a count, cycles for ``seconds``."""
    clock = time.perf_counter
    samples: list[Sample] = []
    cycle_walls: list[float] = []
    outstanding: deque[tuple[str, int, float, str]] = deque()

    def finish_oldest() -> None:
        nonlocal cycle_start
        key, cycle, submitted, job_id = outstanding.popleft()
        outcome = service.wait_experiment(job_id)
        returned = clock()
        samples.append(Sample(key, cycle, job_id, submitted, returned, outcome))
        if len(samples) % len(workload.cycle) == 0:
            cycle_walls.append(returned - cycle_start)
            cycle_start = returned

    cpu_start = time.process_time()
    started = cycle_start = clock()
    for cycle in itertools.count():
        if cycle == cycles:
            break
        if cycles is None and cycle >= MIN_CYCLES and clock() - started >= seconds:
            break
        for key in workload.cycle:
            if len(outstanding) == workload.window:
                finish_oldest()
            submitted = clock()
            outstanding.append((key, cycle, submitted, submit(service, key)))
    while outstanding:
        finish_oldest()
    return Window(samples, time.process_time() - cpu_start, cycle_walls)
