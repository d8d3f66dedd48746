"""Noise calibration for differential privacy."""

from __future__ import annotations

import math

from repro.errors import PrivacyError


def _validate_epsilon(epsilon: float) -> None:
    if not epsilon > 0:
        raise PrivacyError(f"epsilon must be positive, got {epsilon}")


def _validate_sensitivity(sensitivity: float) -> None:
    if not sensitivity > 0:
        raise PrivacyError(f"sensitivity must be positive, got {sensitivity}")


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float = 1.0) -> float:
    """The Gaussian-mechanism noise scale for an (epsilon, delta) target."""
    _validate_epsilon(epsilon)
    _validate_sensitivity(sensitivity)
    if not 0 < delta < 1:
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
