"""Differential privacy: mechanisms and budget accounting.

The paper's training path offers "local differential privacy (DP)" — the
Worker injects Gaussian noise before sending updates — or secure aggregation
followed by noise injected inside the SMPC protocol.  This package provides
the Gaussian-mechanism calibration and an (epsilon, delta) accountant with
basic composition.
"""

from repro.privacy.accountant import PrivacyAccountant, PrivacySpent
from repro.privacy.mechanisms import gaussian_sigma

__all__ = [
    "PrivacyAccountant",
    "PrivacySpent",
    "gaussian_sigma",
]
