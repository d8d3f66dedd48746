"""The MIP algorithm library (15+ federated algorithms, paper §2).

Importing this package registers every algorithm in the global
:data:`repro.core.registry.algorithm_registry`.
"""

from repro.algorithms import (  # noqa: F401  (imported for registration)
    anova,
    calibration_belt,
    cart,
    descriptive,
    histograms,
    id3,
    kaplan_meier,
    kmeans,
    linear_regression,
    logistic_regression,
    naive_bayes,
    pca,
    pearson,
    training,
    ttest,
)
from repro.core.registry import algorithm_registry

__all__ = ["algorithm_registry"]
