"""Failure policies and worker-health tracking for the federation runtime.

Production federated stacks treat node failure as the normal case: a dropped
message is retried with exponential backoff, a send that keeps failing hits a
deadline, and an experiment degrades to the surviving quorum instead of dying
on the first unreachable hospital.  This module holds the three pieces the
rest of the stack composes:

- :class:`RetryPolicy` — per-send retry/backoff/deadline knobs consumed by
  :class:`~repro.federation.transport.Transport`,
- :class:`FailurePolicy` — the federation-level contract (retries, deadline,
  ``min_workers`` quorum, fail-vs-degrade on worker loss) consumed by
  :class:`~repro.federation.master.Master` and the execution context,
- :class:`WorkerHealth` — a consecutive-failure circuit breaker with
  re-admission on recovery, shared by every flow on a master.

All randomness used for backoff jitter is drawn from the transport's seeded
RNG in request order *before* dispatch, so a failure schedule plus a seed
reproduces the exact same retries at any fan-out width.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import FederationError


@dataclass(frozen=True)
class RetryPolicy:
    """How the transport retries one send.

    ``max_attempts`` counts the initial try, so ``1`` means no retries (the
    default, preserving fail-fast behavior).  The backoff for attempt ``k``
    (0-based) is ``min(base_delay * 2**k, max_delay)`` scaled by a jitter
    factor in ``[1 - jitter, 1 + jitter]``; delays are charged to the
    *simulated* clock, so retrying never slows the test suite down.

    ``deadline_seconds`` bounds the cumulative simulated time (attempts plus
    backoff) one logical send may consume; exceeding it raises
    :class:`~repro.errors.FederationTimeoutError`.
    """

    max_attempts: int = 1
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    jitter: float = 0.25
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FederationError("max_attempts must be >= 1")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise FederationError("backoff delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise FederationError("jitter must be in [0, 1]")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise FederationError("deadline_seconds must be positive")

    def backoff_delay(self, attempt: int, jitter_unit: float) -> float:
        """Delay before re-attempt ``attempt + 1``; ``jitter_unit`` in [0, 1)."""
        delay = min(self.base_delay_seconds * (2**attempt), self.max_delay_seconds)
        return delay * (1 - self.jitter + 2 * self.jitter * jitter_unit)


@dataclass(frozen=True)
class FailurePolicy:
    """The federation's contract for surviving worker loss.

    ``on_worker_loss="fail"`` (default) reproduces the fail-fast behavior:
    the first unreachable worker aborts the flow.  ``"degrade"`` evicts the
    dead worker from the flow and continues with the survivors, as long as at
    least ``min_workers`` remain — otherwise the flow raises
    :class:`~repro.errors.QuorumError`.

    ``failure_threshold`` consecutive failed exchanges trip a worker's
    circuit breaker (see :class:`WorkerHealth`); a successful exchange — e.g.
    answering a later catalog ping — re-admits it.
    """

    retries: int = 0
    retry_base_delay: float = 0.05
    retry_max_delay: float = 2.0
    retry_jitter: float = 0.25
    deadline_seconds: float | None = None
    min_workers: int = 1
    on_worker_loss: str = "fail"
    failure_threshold: int = 3

    def __post_init__(self) -> None:
        if self.on_worker_loss not in ("fail", "degrade"):
            raise FederationError(
                f"on_worker_loss must be 'fail' or 'degrade', got {self.on_worker_loss!r}"
            )
        if self.retries < 0:
            raise FederationError("retries must be >= 0")
        if self.min_workers < 1:
            raise FederationError("min_workers must be >= 1")
        if self.failure_threshold < 1:
            raise FederationError("failure_threshold must be >= 1")

    @property
    def degrade(self) -> bool:
        return self.on_worker_loss == "degrade"

    def retry_policy(self) -> RetryPolicy:
        """The transport-level policy implementing this contract."""
        return RetryPolicy(
            max_attempts=self.retries + 1,
            base_delay_seconds=self.retry_base_delay,
            max_delay_seconds=self.retry_max_delay,
            jitter=self.retry_jitter,
            deadline_seconds=self.deadline_seconds,
        )


class WorkerHealth:
    """Consecutive-failure circuit breaker over a master's workers.

    ``failure_threshold`` consecutive failed exchanges quarantine a worker;
    any successful exchange resets its counter and re-admits it.  The tracker
    is shared by every concurrent flow on a master, so access is
    lock-protected.
    """

    def __init__(self, failure_threshold: int = 3) -> None:
        if failure_threshold < 1:
            raise FederationError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self._lock = threading.Lock()
        self._consecutive_failures: dict[str, int] = {}
        self._quarantined: set[str] = set()
        #: Total circuit-breaker trips (quarantine events), ever.
        self.evictions = 0

    def record_success(self, worker: str) -> bool:
        """Note a successful exchange; returns True if this re-admitted it."""
        with self._lock:
            self._consecutive_failures[worker] = 0
            if worker in self._quarantined:
                self._quarantined.discard(worker)
                return True
            return False

    def record_failure(self, worker: str) -> bool:
        """Note a failed exchange; returns True if the breaker tripped now."""
        with self._lock:
            count = self._consecutive_failures.get(worker, 0) + 1
            self._consecutive_failures[worker] = count
            if count >= self.failure_threshold and worker not in self._quarantined:
                self._quarantined.add(worker)
                self.evictions += 1
                return True
            return False

    def is_quarantined(self, worker: str) -> bool:
        with self._lock:
            return worker in self._quarantined

    def quarantined(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._quarantined)
