"""The federation's failure contract.

Production federated stacks treat node failure as the normal case: a dropped
message is retried with exponential backoff, and an experiment degrades to
the surviving quorum instead of dying on the first unreachable hospital.
:class:`FailurePolicy` is the one contract for both.  It is read only where
the outcome of a send is classified: the transport's retry loop (``retries``)
and :meth:`~repro.federation.master.Master._fan_out` (``on_worker_loss``,
``min_workers``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FederationError


@dataclass(frozen=True)
class FailurePolicy:
    """The federation's contract for surviving worker loss.

    ``retries`` is how many times the transport re-sends a message that
    found its receiver unavailable (backoff and jitter: see
    :mod:`repro.federation.transport`).  ``on_worker_loss="fail"`` (default)
    reproduces the fail-fast behavior: the first unreachable worker aborts
    the flow.  ``"degrade"`` evicts the dead worker from the flow and
    continues with the survivors, as long as at least ``min_workers`` remain
    — otherwise the flow raises :class:`~repro.errors.QuorumError`.
    """

    retries: int = 0
    on_worker_loss: str = "fail"
    min_workers: int = 1

    def __post_init__(self) -> None:
        if self.on_worker_loss not in ("fail", "degrade"):
            raise FederationError(
                f"on_worker_loss must be 'fail' or 'degrade', got {self.on_worker_loss!r}"
            )
        if self.retries < 0:
            raise FederationError("retries must be >= 0")
        if self.min_workers < 1:
            raise FederationError("min_workers must be >= 1")

    @property
    def degrade(self) -> bool:
        return self.on_worker_loss == "degrade"
