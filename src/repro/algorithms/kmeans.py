"""Federated k-means clustering (the Alzheimer's use case's first algorithm).

Lloyd's algorithm federates naturally: the master broadcasts the current
centroids; each worker assigns its local points and returns per-cluster
partial sums and counts; the secure sum yields the new centroids.  The loop
is the paper's iterative Master/Worker cycle.

Initialisation is a deterministic quasi-random draw inside the securely
computed per-dimension min/max box, so every worker-count configuration
produces the same starting centroids for a given seed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)


@udf(data=relation(), variables=literal(), metadata=literal(), return_type=[secure_transfer()])
def kmeans_bounds_local(data, variables, metadata):
    """Per-dimension bounds and moments for initialisation.

    When every variable declares a range, the min/max entries declare
    ``bound`` = the largest |declared extreme| and compare at that width,
    unless a value of this slice lies outside it.  An empty slice sends each dimension's opposite declared extreme (or a
    ±1e6 sentinel where none is declared), which loses every comparison.
    """
    matrix = _h.numeric_matrix(data, variables)
    lows = [metadata.get(v, {}).get("min") for v in variables]
    highs = [metadata.get(v, {}).get("max") for v in variables]
    if len(matrix):
        mins, maxs = matrix.min(axis=0).tolist(), matrix.max(axis=0).tolist()
    else:
        mins = [1e6 if high is None else float(high) for high in highs]
        maxs = [-1e6 if low is None else float(low) for low in lows]
    bound = None
    if None not in lows + highs:
        bound = max(abs(float(extreme)) for extreme in lows + highs) or None
    if bound is not None and len(matrix) and np.abs(matrix).max() > bound:
        bound = None  # values outside the declared ranges: compare at full width
    return {
        "min": {"data": mins, "operation": "min", "bound": bound},
        "max": {"data": maxs, "operation": "max", "bound": bound},
        "n": {"data": int(matrix.shape[0]), "operation": "sum"},
    }


@udf(
    data=relation(),
    variables=literal(),
    centroids=transfer(),
    return_type=[secure_transfer()],
)
def kmeans_assign_local(data, variables, centroids):
    """Assign local points to the nearest centroid; emit partial sums."""
    matrix = data.to_matrix(variables)
    centers = np.asarray(centroids["centroids"], dtype=np.float64)
    distances = ((matrix[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assignment = distances.argmin(axis=1)
    k = centers.shape[0]
    counts = np.array([(assignment == j).sum() for j in range(k)], dtype=np.int64)
    sums = np.zeros_like(centers)
    inertia = 0.0
    for j in range(k):
        members = matrix[assignment == j]
        if len(members):
            sums[j] = members.sum(axis=0)
            inertia += float(((members - centers[j]) ** 2).sum())
    return {
        "counts": {"data": counts.tolist(), "operation": "sum"},
        "sums": {"data": sums.tolist(), "operation": "sum"},
        "inertia": {"data": inertia, "operation": "sum"},
    }


@register_algorithm
class KMeansClustering(FederatedAlgorithm):
    """k-means over numeric variables across the federation."""

    name = "kmeans"
    label = "k-Means Clustering"
    needs_y = "required"
    needs_x = "none"
    y_types = ("numeric",)
    parameters = (
        ParameterSpec("k", "int", label="Number of centroids", required=True,
                      min_value=1, max_value=20),
        ParameterSpec("e", "real", label="Convergence tolerance", default=1e-4,
                      min_value=0.0),
        ParameterSpec("iterations_max_number", "int", label="Maximum iterations",
                      default=100, min_value=1, max_value=1000),
        ParameterSpec("seed", "int", label="Initialisation seed", default=0),
        ParameterSpec("standardize", "bool", label="Scale dimensions to the unit box",
                      default=False),
    )

    def run(self) -> dict[str, Any]:
        variables = list(self.y)
        k = self.params["k"]
        tolerance = self.params["e"]
        max_iterations = self.params["iterations_max_number"]
        view = self.data_view(variables)

        bounds_handle = self.local_run(
            func=kmeans_bounds_local,
            keyword_args={"data": view, "variables": variables, "metadata": self.metadata},
            share_to_global=[True],
        )
        bounds = self.ctx.get_transfer_data(bounds_handle)
        lower = np.asarray(bounds["min"], dtype=np.float64)
        upper = np.asarray(bounds["max"], dtype=np.float64)
        n_total = int(bounds["n"])
        if n_total < k:
            raise AlgorithmError(f"cannot form {k} clusters from {n_total} points")

        rng = np.random.default_rng(self.params["seed"])
        centroids = lower + rng.random((k, len(variables))) * (upper - lower)

        history: list[float] = []
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            centroid_transfer = self.global_run(
                func=_publish_centroids,
                keyword_args={"centroids_in": centroids.tolist()},
                share_to_locals=[True],
            )
            step_handle = self.local_run(
                func=kmeans_assign_local,
                keyword_args={
                    "data": view,
                    "variables": variables,
                    "centroids": centroid_transfer,
                },
                share_to_global=[True],
            )
            aggregate = self.ctx.get_transfer_data(step_handle)
            counts = np.asarray(aggregate["counts"], dtype=np.float64)
            sums = np.asarray(aggregate["sums"], dtype=np.float64)
            history.append(float(aggregate["inertia"]))
            new_centroids = centroids.copy()
            non_empty = counts > 0
            new_centroids[non_empty] = sums[non_empty] / counts[non_empty, None]
            shift = float(np.abs(new_centroids - centroids).max())
            centroids = new_centroids
            if shift <= tolerance:
                break
        return {
            "variables": variables,
            "k": k,
            "centroids": centroids.tolist(),
            "cluster_sizes": counts.astype(int).tolist(),
            "inertia": history[-1] if history else 0.0,
            "inertia_history": history,
            "iterations": iterations,
            "n_observations": n_total,
            "converged": iterations < max_iterations,
        }


@udf(centroids_in=literal(), return_type=[transfer()])
def _publish_centroids(centroids_in):
    """Global step materializing the centroids as a broadcastable transfer."""
    return {"centroids": centroids_in}
