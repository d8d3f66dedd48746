"""Dataset-aware algorithm shipping.

The Master tracks dataset availability; the scheduler decides *where* each
requested dataset is read so that replicated datasets are counted exactly
once and work spreads across workers.  With experiments running concurrently
the balancer also sees the *in-flight* load: datasets currently assigned to
each worker by running experiments (a :class:`WorkerLoad` snapshot), so a
replicated dataset lands on the genuinely least-busy holder rather than the
least-busy holder of this one experiment.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import DatasetUnavailableError


@dataclass(frozen=True)
class ShippingPlan:
    """Which datasets each worker reads for one experiment."""

    assignments: dict[str, list[str]]  # worker -> dataset codes

    @property
    def workers(self) -> list[str]:
        return sorted(self.assignments)


class WorkerLoad:
    """Thread-safe tracker of in-flight dataset assignments per worker.

    The experiment runner acquires a plan's assignments when an experiment
    starts executing and releases them when it finishes (success, error or
    cancellation), so concurrent planners balance against what is actually
    running right now.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def acquire(self, assignments: Mapping[str, Sequence[str]]) -> None:
        with self._lock:
            for worker, datasets in assignments.items():
                self._counts[worker] = self._counts.get(worker, 0) + len(datasets)

    def release(self, assignments: Mapping[str, Sequence[str]]) -> None:
        with self._lock:
            for worker, datasets in assignments.items():
                remaining = self._counts.get(worker, 0) - len(datasets)
                if remaining > 0:
                    self._counts[worker] = remaining
                else:
                    self._counts.pop(worker, None)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


def plan_shipping(
    availability: Mapping[str, Sequence[str]],
    datasets: Sequence[str],
    current_load: Mapping[str, int] | None = None,
) -> ShippingPlan:
    """Assign each requested dataset to exactly one holding worker.

    ``availability`` maps dataset code to the workers holding it.  A dataset
    replicated on several workers is assigned to the holder with the fewest
    datasets counting both this plan's assignments so far and the in-flight
    ``current_load`` (greedy load balancing across concurrent experiments);
    a dataset with no holder raises :class:`DatasetUnavailableError`.

    Ties are broken by worker id: holders are considered in sorted order, so
    the plan never depends on the availability map's insertion order.
    """
    load = dict(current_load or {})
    assignments: dict[str, list[str]] = {}
    missing: list[str] = []
    # Process scarce datasets first so load balancing has room to choose;
    # the code tie-break keeps the plan independent of request order.
    ordered = sorted(datasets, key=lambda code: (len(availability.get(code, ())), code))
    for code in ordered:
        holders = sorted(availability.get(code, ()))
        if not holders:
            missing.append(code)
            continue
        chosen = min(
            holders,
            key=lambda worker: len(assignments.get(worker, [])) + load.get(worker, 0),
        )
        assignments.setdefault(chosen, []).append(code)
    if missing:
        raise DatasetUnavailableError(
            f"datasets {sorted(missing)} are not available on any active worker"
        )
    return ShippingPlan({worker: sorted(codes) for worker, codes in assignments.items()})
