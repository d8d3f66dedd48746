"""Federated principal component analysis.

The covariance (or correlation) matrix is assembled from securely aggregated
first and second moments; the eigendecomposition happens on the master.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.moments import covariance_from_moments, moments_local
from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError


@register_algorithm
class PrincipalComponents(FederatedAlgorithm):
    """PCA of standardized (or raw-covariance) numeric variables."""

    name = "pca"
    label = "Principal Components Analysis"
    needs_y = "required"
    needs_x = "none"
    y_types = ("numeric",)
    parameters = (
        ParameterSpec("standardize", "bool", label="Use the correlation matrix",
                      default=True),
    )

    def run(self) -> dict[str, Any]:
        variables = list(self.y)
        if len(variables) < 2:
            raise AlgorithmError("PCA needs at least two variables")
        handle = self.local_run(
            func=moments_local,
            keyword_args={"data": self.data_view(variables), "variables": variables},
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        n = int(sums["n"])
        if n < 3:
            raise AlgorithmError(f"not enough observations for PCA (n={n})")
        means, covariance, stds = covariance_from_moments(n, sums["sums"], sums["cross"])
        if self.params["standardize"]:
            if (stds == 0).any():
                constant = [v for v, s in zip(variables, stds) if s == 0]
                raise AlgorithmError(f"constant variables cannot be standardized: {constant}")
            matrix = covariance / np.outer(stds, stds)
        else:
            matrix = covariance
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.clip(eigenvalues[order], 0.0, None)
        eigenvectors = eigenvectors[:, order]
        # Deterministic sign: make each component's largest loading positive.
        for j in range(eigenvectors.shape[1]):
            pivot = np.argmax(np.abs(eigenvectors[:, j]))
            if eigenvectors[pivot, j] < 0:
                eigenvectors[:, j] = -eigenvectors[:, j]
        total_variance = eigenvalues.sum()
        explained = eigenvalues / total_variance if total_variance > 0 else eigenvalues
        return {
            "variables": variables,
            "n_observations": n,
            "means": means.tolist(),
            "stds": stds.tolist(),
            "eigenvalues": eigenvalues.tolist(),
            "eigenvectors": eigenvectors.T.tolist(),  # rows = components
            "explained_variance_ratio": explained.tolist(),
            "cumulative_explained_variance": np.cumsum(explained).tolist(),
            "standardized": bool(self.params["standardize"]),
        }
