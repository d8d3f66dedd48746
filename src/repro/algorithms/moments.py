"""Moment local steps that several algorithms share.

A local step returns a sufficient statistic, not an algorithm's answer, so
every algorithm that needs the same statistic names the same step:

- ``moments_local``: n, column sums and XᵀX of numeric variables
  (``pca``, ``pearson_correlation``);
- ``group_moments_local``: n, Σ and Σ² of one variable per level of a
  grouping variable (``ttest_independent``, ``anova_oneway``).

``covariance_from_moments`` is the master-side derivation from the first.
"""

from __future__ import annotations

import numpy as np

from repro.udfgen import literal, relation, secure_transfer, udf


@udf(data=relation(), variables=literal(), return_type=[secure_transfer()])
def moments_local(data, variables):
    """First/second moment sums over complete rows of the selected variables."""
    matrix = data.to_matrix(variables)
    return {
        "n": {"data": int(matrix.shape[0]), "operation": "sum"},
        "sums": {"data": matrix.sum(axis=0).tolist(), "operation": "sum"},
        "cross": {"data": (matrix.T @ matrix).tolist(), "operation": "sum"},
    }


@udf(
    data=relation(),
    response=literal(),
    group_variable=literal(),
    levels=literal(),
    return_type=[secure_transfer()],
)
def group_moments_local(data, response, group_variable, levels):
    """Per-level moment sums, keyed by the level's index in ``levels``."""
    values = np.asarray(data[response], dtype=np.float64)
    groups = data.codes(group_variable, levels)
    payload = {}
    for index in range(len(levels)):
        selected = values[groups == index]
        payload[f"n_{index}"] = {"data": int(len(selected)), "operation": "sum"}
        payload[f"sum_{index}"] = {"data": float(selected.sum()), "operation": "sum"}
        payload[f"sumsq_{index}"] = {"data": float((selected**2).sum()), "operation": "sum"}
    return payload


def covariance_from_moments(
    n: int, sums: list[float], cross: list[list[float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, sample covariance and standard deviations from ``moments_local``
    sums.  The caller checks ``n`` first: ``n - 1`` divides."""
    means = np.asarray(sums, dtype=np.float64) / n
    covariance = (np.asarray(cross, dtype=np.float64) - n * np.outer(means, means)) / (n - 1)
    stds = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return means, covariance, stds
