"""DP noise calibration."""

import numpy as np
import pytest

from repro.errors import PrivacyError
from repro.privacy.mechanisms import gaussian_sigma


class TestGaussian:
    def test_sigma_formula(self):
        sigma = gaussian_sigma(epsilon=1.0, delta=1e-5, sensitivity=1.0)
        assert sigma == pytest.approx(np.sqrt(2 * np.log(1.25e5)), rel=1e-9)

    def test_sigma_scales_with_sensitivity(self):
        assert gaussian_sigma(1.0, 1e-5, 2.0) == 2 * gaussian_sigma(1.0, 1e-5, 1.0)

    def test_sigma_shrinks_with_epsilon(self):
        assert gaussian_sigma(2.0, 1e-5) < gaussian_sigma(1.0, 1e-5)

    def test_delta_validation(self):
        with pytest.raises(PrivacyError):
            gaussian_sigma(epsilon=1.0, delta=0.0)
        with pytest.raises(PrivacyError):
            gaussian_sigma(epsilon=1.0, delta=1.5)

    @pytest.mark.parametrize("epsilon, sensitivity", [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
    ])
    def test_epsilon_and_sensitivity_must_be_positive(self, epsilon, sensitivity):
        with pytest.raises(PrivacyError, match="must be positive"):
            gaussian_sigma(epsilon, 1e-5, sensitivity)
