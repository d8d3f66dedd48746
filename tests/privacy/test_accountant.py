"""Privacy budget accounting."""

import math

import pytest

from repro.errors import PrivacyError
from repro.privacy.accountant import PrivacyAccountant


class TestBasicComposition:
    def test_epsilons_add(self):
        accountant = PrivacyAccountant()
        accountant.record(0.5)
        accountant.record(0.25, 1e-6)
        spent = accountant.spent()
        assert spent.epsilon == pytest.approx(0.75)
        assert spent.delta == pytest.approx(1e-6)

    def test_budget_enforced(self):
        accountant = PrivacyAccountant(epsilon_budget=1.0)
        accountant.record(0.6)
        with pytest.raises(PrivacyError, match="exhausted"):
            accountant.record(0.6)
        # failed record must not be counted
        assert accountant.spent().epsilon == pytest.approx(0.6)

    def test_delta_budget_enforced(self):
        accountant = PrivacyAccountant(delta_budget=1e-5)
        accountant.record(0.1, 9e-6)
        with pytest.raises(PrivacyError):
            accountant.record(0.1, 9e-6)

    def test_invalid_release(self):
        accountant = PrivacyAccountant()
        with pytest.raises(PrivacyError):
            accountant.record(-1.0)
        with pytest.raises(PrivacyError):
            accountant.record(1.0, 2.0)

    def test_zero_epsilon_release_refused(self):
        with pytest.raises(PrivacyError, match="positive"):
            PrivacyAccountant().record(0.0)

    @pytest.mark.parametrize("budget, slack, spend", [
        ("epsilon_budget", 1e-12, lambda accountant, value: accountant.record(value)),
        ("delta_budget", 1e-15, lambda accountant, value: accountant.record(0.1, value)),
    ], ids=["epsilon", "delta"])
    def test_release_that_spends_the_budget_exactly_is_accepted(self, budget, slack, spend):
        """Spending the whole budget is allowed, up to the check's rounding
        slack; a release past budget + slack is refused."""
        limit = 1e-5
        exact = PrivacyAccountant(**{budget: limit})
        spend(exact, limit / 2)
        spend(exact, limit / 2)
        spend(PrivacyAccountant(**{budget: limit}), limit + slack)
        with pytest.raises(PrivacyError, match="budget exhausted"):
            spend(PrivacyAccountant(**{budget: limit}), math.nextafter(limit + slack, 1.0))

    def test_invalid_budgets(self):
        with pytest.raises(PrivacyError):
            PrivacyAccountant(epsilon_budget=0.0)
        with pytest.raises(PrivacyError):
            PrivacyAccountant(delta_budget=1.0)
