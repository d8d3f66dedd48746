"""(epsilon, delta) budget accounting with basic composition."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PrivacyError


@dataclass(frozen=True)
class PrivacySpent:
    """Total privacy loss under a chosen composition theorem."""

    epsilon: float
    delta: float


class PrivacyAccountant:
    """Tracks the (epsilon, delta) cost of a sequence of mechanism releases.

    ``spent()`` reports basic (sequential) composition.
    """

    def __init__(
        self,
        epsilon_budget: float | None = None,
        delta_budget: float | None = None,
        audit=None,
        scope: str = "",
    ) -> None:
        if epsilon_budget is not None and epsilon_budget <= 0:
            raise PrivacyError("epsilon budget must be positive")
        if delta_budget is not None and not 0 <= delta_budget < 1:
            raise PrivacyError("delta budget must be in [0, 1)")
        self.epsilon_budget = epsilon_budget
        self.delta_budget = delta_budget
        #: Optional observability.audit.AuditLog; each accounted release is
        #: recorded there as a ``privacy_spend`` event under ``scope``.
        self.audit = audit
        self.scope = scope
        self._releases: list[tuple[float, float]] = []

    def record(self, epsilon: float, delta: float = 0.0) -> None:
        """Account one release; raises if a budget would be exceeded."""
        if epsilon <= 0:
            raise PrivacyError("released epsilon must be positive")
        if not 0 <= delta < 1:
            raise PrivacyError("released delta must be in [0, 1)")
        prospective = self._basic(self._releases + [(epsilon, delta)])
        if self.epsilon_budget is not None and prospective.epsilon > self.epsilon_budget + 1e-12:
            raise PrivacyError(
                f"epsilon budget exhausted: {prospective.epsilon:.4f} > {self.epsilon_budget}"
            )
        if self.delta_budget is not None and prospective.delta > self.delta_budget + 1e-15:
            raise PrivacyError(
                f"delta budget exhausted: {prospective.delta:.2e} > {self.delta_budget}"
            )
        self._releases.append((epsilon, delta))
        if self.audit is not None:
            self.audit.record(
                "privacy_spend",
                job_id=self.scope or None,
                epsilon=epsilon,
                delta=delta,
                total_epsilon=prospective.epsilon,
                total_delta=prospective.delta,
                epsilon_budget=self.epsilon_budget,
                delta_budget=self.delta_budget,
            )

    def spent(self) -> PrivacySpent:
        """Basic composition: epsilons and deltas add."""
        return self._basic(self._releases)

    @staticmethod
    def _basic(releases: list[tuple[float, float]]) -> PrivacySpent:
        return PrivacySpent(
            epsilon=sum(e for e, _ in releases),
            delta=min(1.0, sum(d for _, d in releases)),
        )
