"""Privacy budget accounting."""

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
        assert accountant.n_releases == 2

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

    def test_invalid_budgets(self):
        with pytest.raises(PrivacyError):
            PrivacyAccountant(epsilon_budget=0.0)
        with pytest.raises(PrivacyError):
            PrivacyAccountant(delta_budget=1.0)
