"""Federated Pearson correlation matrix with per-pair inference."""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.special import stdtr

from repro.algorithms.moments import covariance_from_moments, moments_local
from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)


@udf(data=relation(), variables=literal(), return_type=[secure_transfer()])
def pearson_pairwise_local(data, variables):
    """Per-pair moment sums over the rows complete for *that pair*.

    Sparse clinical data loses many rows to complete-case deletion when the
    variable set grows; pairwise-complete correlation keeps every pair's
    usable rows (at the cost of a non-PSD matrix in the worst case).
    """
    columns = [np.asarray(data[v], dtype=np.float64) for v in variables]
    payload = {}
    k = len(variables)
    for i in range(k):
        for j in range(i, k):
            both = ~np.isnan(columns[i]) & ~np.isnan(columns[j])
            x = columns[i][both]
            y = columns[j][both]
            key = f"p{i}_{j}"
            payload[f"{key}_n"] = {"data": int(both.sum()), "operation": "sum"}
            payload[f"{key}_sx"] = {"data": float(x.sum()), "operation": "sum"}
            payload[f"{key}_sy"] = {"data": float(y.sum()), "operation": "sum"}
            payload[f"{key}_sxx"] = {"data": float((x**2).sum()), "operation": "sum"}
            payload[f"{key}_syy"] = {"data": float((y**2).sum()), "operation": "sum"}
            payload[f"{key}_sxy"] = {"data": float((x * y).sum()), "operation": "sum"}
    return payload


def correlation_from_moments(
    n: int, sums: list[float], cross: list[list[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrix and two-sided p-values from aggregated moments."""
    if n < 3:
        raise AlgorithmError(f"not enough observations for correlation (n={n})")
    _, covariance, stds = covariance_from_moments(n, sums, cross)
    denominator = np.outer(stds, stds)
    with np.errstate(divide="ignore", invalid="ignore"):
        correlations = np.where(denominator > 0, covariance / denominator, 0.0)
    correlations = np.clip(correlations, -1.0, 1.0)
    np.fill_diagonal(correlations, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = correlations * np.sqrt((n - 2) / np.clip(1 - correlations**2, 1e-12, None))
    p_values = 2.0 * stdtr(n - 2, -np.abs(t_values))
    np.fill_diagonal(p_values, 0.0)
    return correlations, p_values


@register_algorithm
class PearsonCorrelation(FederatedAlgorithm):
    """Pairwise Pearson correlations among numeric variables.

    ``complete_cases=True`` (default) drops rows with any NA among the
    selected variables; ``False`` uses pairwise-complete observations, so
    each pair keeps all its usable rows.
    """

    name = "pearson_correlation"
    label = "Pearson Correlation"
    needs_y = "required"
    needs_x = "optional"
    y_types = ("numeric",)
    x_types = ("numeric",)
    parameters = (
        ParameterSpec("complete_cases", "bool",
                      label="Complete-case (vs pairwise-complete) deletion",
                      default=True),
    )

    def run(self) -> dict[str, Any]:
        variables = list(dict.fromkeys(list(self.y) + list(self.x)))
        if len(variables) < 2:
            raise AlgorithmError("Pearson correlation needs at least two variables")
        if self.params["complete_cases"]:
            return self._complete_case(variables)
        return self._pairwise(variables)

    def _complete_case(self, variables: list[str]) -> dict[str, Any]:
        handle = self.local_run(
            func=moments_local,
            keyword_args={"data": self.data_view(variables), "variables": variables},
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        n = int(sums["n"])
        correlations, p_values = correlation_from_moments(n, sums["sums"], sums["cross"])
        # Fisher z confidence intervals.
        with np.errstate(divide="ignore"):
            z = np.arctanh(np.clip(correlations, -0.999999, 0.999999))
        margin = 1.959963984540054 / np.sqrt(n - 3) if n > 3 else np.inf
        ci_lower = np.tanh(z - margin)
        ci_upper = np.tanh(z + margin)
        return {
            "variables": variables,
            "n_observations": n,
            "correlations": correlations.tolist(),
            "p_values": p_values.tolist(),
            "ci_lower": ci_lower.tolist(),
            "ci_upper": ci_upper.tolist(),
            "complete_cases": True,
        }

    def _pairwise(self, variables: list[str]) -> dict[str, Any]:
        handle = self.local_run(
            func=pearson_pairwise_local,
            keyword_args={
                "data": self.data_view(variables, dropna=False),
                "variables": variables,
            },
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        k = len(variables)
        correlations = np.eye(k)
        p_values = np.zeros((k, k))
        pair_counts = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(i, k):
                key = f"p{i}_{j}"
                n = int(sums[f"{key}_n"])
                pair_counts[i, j] = pair_counts[j, i] = n
                if i == j:
                    continue
                if n < 3:
                    raise AlgorithmError(
                        f"pair ({variables[i]}, {variables[j]}) has only {n} "
                        "complete observations"
                    )
                sx, sy = float(sums[f"{key}_sx"]), float(sums[f"{key}_sy"])
                sxx, syy = float(sums[f"{key}_sxx"]), float(sums[f"{key}_syy"])
                sxy = float(sums[f"{key}_sxy"])
                cov = sxy - sx * sy / n
                var_x = sxx - sx**2 / n
                var_y = syy - sy**2 / n
                denominator = np.sqrt(max(var_x, 0.0) * max(var_y, 0.0))
                r = float(np.clip(cov / denominator, -1.0, 1.0)) if denominator > 0 else 0.0
                correlations[i, j] = correlations[j, i] = r
                t = r * np.sqrt((n - 2) / max(1 - r**2, 1e-12))
                p = 2.0 * stdtr(n - 2, -abs(t))
                p_values[i, j] = p_values[j, i] = float(p)
        return {
            "variables": variables,
            "pair_counts": pair_counts.tolist(),
            "correlations": correlations.tolist(),
            "p_values": p_values.tolist(),
            "complete_cases": False,
        }
