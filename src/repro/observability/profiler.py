"""A stdlib-only sampling profiler with per-job attribution.

A background daemon thread wakes ``hz`` times per second, snapshots every
thread's Python stack via :func:`sys._current_frames`, and aggregates the
stacks into counts — the classic wall-clock sampling design (py-spy /
austin, in-process).  No tracing hooks are installed, so the profiled code
runs at full speed between ticks; the measured overhead at the default rate
is a fraction of a percent (asserted by
``tests/observability/test_profiler.py``).

**Per-job attribution.**  The experiment queue drives each job inside its
transport's :meth:`~repro.federation.transport.Transport.job_scope`, which
records the executing thread in that transport's ``thread_jobs`` map;
fan-out pool threads are recorded for the duration of each send they run
on a job's behalf.  :meth:`~repro.api.service.MIPService.attach_profiler`
hands the profiler that map, so every sample is tagged with the job id its
thread is working for, and ``collapsed(job=...)`` yields one job's
flamegraph out of a concurrent mix.

**Determinism safety.**  A simulated federation's scheduling is a pure
function of its seed; a free-running sampler thread would be an
unscheduled source of wakeups, so
:meth:`~repro.api.service.MIPService.attach_profiler` refuses to start one
over a federation driven by a simulation runtime.

Exports: collapsed-stack text (``a;b;c 42`` — the flamegraph.pl /
inferno / speedscope-compatible format) and speedscope's JSON file format.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Any, Mapping

#: Default sampling rate.  A prime, so the sampler does not phase-lock with
#: common periodic workloads (timers, modeled-latency sleeps at round rates).
DEFAULT_HZ = 97.0

#: Sentinel for "all jobs" in the filtering accessors.
_ALL = object()


def _frame_label(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    function = getattr(code, "co_qualname", None) or code.co_name
    return f"{module}.{function}"


class SamplingProfiler:
    """Samples every thread's stack ``hz`` times per second while running."""

    def __init__(self, hz: float = DEFAULT_HZ, max_depth: int = 128) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = float(hz)
        self.max_depth = max_depth
        self._lock = threading.Lock()
        #: (job id or None, root→leaf stack tuple) -> tick count.
        self._counts: Counter[tuple[str | None, tuple[str, ...]]] = Counter()
        self._samples = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_wall: float | None = None
        self._elapsed = 0.0
        #: Thread ident -> the job it works for; the map of the transport
        #: the profiler is attached to (read only, atomically under the GIL).
        self.thread_jobs: Mapping[int, str] = {}

    # -------------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> bool:
        """Begin sampling (idempotent); always returns True."""
        with self._lock:
            if self._thread is not None:
                return True
            self._stop.clear()
            self._started_wall = time.perf_counter()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return True

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
            if self._started_wall is not None:
                self._elapsed += time.perf_counter() - self._started_wall
                self._started_wall = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5)

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # --------------------------------------------------------------- sampling

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        while not self._stop.wait(interval):
            self._sample_once(own_ident)

    def _sample_once(self, own_ident: int) -> None:
        frames = sys._current_frames()
        thread_jobs = self.thread_jobs
        tick: list[tuple[str | None, tuple[str, ...]]] = []
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            stack.reverse()  # root → leaf, the collapsed-stack convention
            tick.append((thread_jobs.get(ident), tuple(stack)))
        with self._lock:
            self._samples += 1
            for key in tick:
                self._counts[key] += 1

    # ---------------------------------------------------------------- exports

    @property
    def sample_count(self) -> int:
        """Sampler ticks taken so far (each tick samples every thread)."""
        with self._lock:
            return self._samples

    @property
    def elapsed_seconds(self) -> float:
        with self._lock:
            running = (
                time.perf_counter() - self._started_wall
                if self._started_wall is not None
                else 0.0
            )
            return self._elapsed + running

    def jobs(self) -> list[str]:
        """Job ids that have attributed samples."""
        with self._lock:
            return sorted({job for job, _stack in self._counts if job is not None})

    def stack_counts(self, job: Any = _ALL) -> dict[tuple[str, ...], int]:
        """Aggregated stack → tick counts; ``job`` filters attribution.

        ``job=None`` selects only unattributed samples, a job id selects
        that job's, and the default selects everything.
        """
        out: Counter[tuple[str, ...]] = Counter()
        with self._lock:
            for (sample_job, stack), count in self._counts.items():
                if job is _ALL or sample_job == job:
                    out[stack] += count
        return dict(out)

    def collapsed(self, job: Any = _ALL) -> str:
        """Collapsed-stack flamegraph text: ``frame;frame;frame count``."""
        counts = self.stack_counts(job)
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro-profile", job: Any = _ALL) -> dict[str, Any]:
        """The speedscope JSON file format (https://www.speedscope.app).

        One sampled profile; each unique stack becomes a sample weighted by
        its tick count times the sampling interval.
        """
        counts = self.stack_counts(job)
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        samples: list[list[int]] = []
        weights: list[float] = []
        interval = 1.0 / self.hz
        for stack, count in sorted(counts.items()):
            indexed = []
            for label in stack:
                index = frame_index.get(label)
                if index is None:
                    index = frame_index[label] = len(frames)
                    frames.append({"name": label})
                indexed.append(index)
            samples.append(indexed)
            weights.append(count * interval)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": round(total, 9),
                    "samples": samples,
                    "weights": [round(w, 9) for w in weights],
                }
            ],
            "exporter": "repro-profiler",
            "name": name,
        }

    def summary(self) -> dict[str, Any]:
        with self._lock:
            stacks = len(self._counts)
            samples = self._samples
        return {
            "hz": self.hz,
            "ticks": samples,
            "unique_stacks": stacks,
            "jobs": self.jobs(),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
