"""Federated t-tests: independent two-sample, one-sample, paired.

All three reduce to secure sums of (n, sum, sum of squares) over the
relevant values or differences; the master derives the statistic, p-value,
confidence interval and effect size.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.special import stdtr, stdtrit

from repro.algorithms.moments import group_moments_local
from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)


@udf(data=relation(), response=literal(), return_type=[secure_transfer()])
def ttest_moments_local(data, response):
    """Moment sums of one numeric column (one-sample test)."""
    values = np.asarray(data[response], dtype=np.float64)
    return {
        "n": {"data": int(len(values)), "operation": "sum"},
        "sum": {"data": float(values.sum()), "operation": "sum"},
        "sumsq": {"data": float((values**2).sum()), "operation": "sum"},
    }


@udf(data=relation(), first=literal(), second=literal(), return_type=[secure_transfer()])
def ttest_paired_local(data, first, second):
    """Moment sums of per-subject differences (paired test)."""
    differences = np.asarray(data[first], dtype=np.float64) - np.asarray(
        data[second], dtype=np.float64
    )
    return {
        "n": {"data": int(len(differences)), "operation": "sum"},
        "sum": {"data": float(differences.sum()), "operation": "sum"},
        "sumsq": {"data": float((differences**2).sum()), "operation": "sum"},
    }


def _moments(n: int, total: float, total_squares: float) -> tuple[float, float]:
    """Mean and sample variance from moment sums."""
    if n < 2:
        raise AlgorithmError(f"not enough observations for a t-test (n={n})")
    mean = total / n
    variance = max((total_squares - n * mean**2) / (n - 1), 0.0)
    return mean, variance


def _one_sample_result(n: int, total: float, total_squares: float, mu: float) -> dict[str, Any]:
    mean, variance = _moments(n, total, total_squares)
    standard_error = float(np.sqrt(variance / n))
    if standard_error == 0:
        raise AlgorithmError("zero variance; t statistic undefined")
    t_statistic = (mean - mu) / standard_error
    degrees = n - 1
    p_value = 2.0 * stdtr(degrees, -abs(t_statistic))
    t_critical = stdtrit(degrees, 0.975)
    return {
        "n_observations": n,
        "mean": mean,
        "std": float(np.sqrt(variance)),
        "t_statistic": float(t_statistic),
        "degrees_of_freedom": degrees,
        "p_value": float(p_value),
        "ci_lower": float(mean - t_critical * standard_error),
        "ci_upper": float(mean + t_critical * standard_error),
        "cohens_d": float((mean - mu) / np.sqrt(variance)),
        "mu": mu,
    }


@register_algorithm
class TTestIndependent(FederatedAlgorithm):
    """Two-sample t-test of a numeric variable between two groups."""

    name = "ttest_independent"
    label = "T-Test Independent"
    needs_y = "required"
    needs_x = "required"
    y_types = ("numeric",)
    x_types = ("nominal",)
    parameters = (
        ParameterSpec("equal_variances", "bool", label="Pooled (Student) vs Welch",
                      default=False),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        response = self.y[0]
        group_variable = self.x[0]
        metadata = resolve_observed_levels(self, [response, group_variable])
        levels = list(metadata.get(group_variable, {}).get("enumerations", []))
        if len(levels) != 2:
            raise AlgorithmError(
                f"t-test needs exactly 2 observed groups, found {len(levels)}: {levels}"
            )
        handle = self.local_run(
            func=group_moments_local,
            keyword_args={
                "data": self.data_view([response, group_variable]),
                "response": response,
                "group_variable": group_variable,
                "levels": levels,
            },
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        n1, n2 = int(sums["n_0"]), int(sums["n_1"])
        mean1, var1 = _moments(n1, float(sums["sum_0"]), float(sums["sumsq_0"]))
        mean2, var2 = _moments(n2, float(sums["sum_1"]), float(sums["sumsq_1"]))
        difference = mean1 - mean2
        if self.params["equal_variances"]:
            pooled = ((n1 - 1) * var1 + (n2 - 1) * var2) / (n1 + n2 - 2)
            standard_error = float(np.sqrt(pooled * (1 / n1 + 1 / n2)))
            degrees = float(n1 + n2 - 2)
        else:
            standard_error = float(np.sqrt(var1 / n1 + var2 / n2))
            numerator = (var1 / n1 + var2 / n2) ** 2
            denominator = (var1 / n1) ** 2 / (n1 - 1) + (var2 / n2) ** 2 / (n2 - 1)
            degrees = float(numerator / denominator) if denominator > 0 else float(n1 + n2 - 2)
        if standard_error == 0:
            raise AlgorithmError("zero variance; t statistic undefined")
        t_statistic = difference / standard_error
        p_value = 2.0 * stdtr(degrees, -abs(t_statistic))
        t_critical = stdtrit(degrees, 0.975)
        pooled_sd = float(np.sqrt(((n1 - 1) * var1 + (n2 - 1) * var2) / (n1 + n2 - 2)))
        return {
            "groups": levels,
            "n_observations": [n1, n2],
            "means": [mean1, mean2],
            "stds": [float(np.sqrt(var1)), float(np.sqrt(var2))],
            "mean_difference": float(difference),
            "t_statistic": float(t_statistic),
            "degrees_of_freedom": degrees,
            "p_value": float(p_value),
            "ci_lower": float(difference - t_critical * standard_error),
            "ci_upper": float(difference + t_critical * standard_error),
            "cohens_d": float(difference / pooled_sd) if pooled_sd > 0 else 0.0,
            "welch": not self.params["equal_variances"],
        }


@register_algorithm
class TTestOneSample(FederatedAlgorithm):
    """One-sample t-test of a numeric variable against a hypothesized mean."""

    name = "ttest_onesample"
    label = "T-Test One-Sample"
    needs_y = "required"
    needs_x = "none"
    y_types = ("numeric",)
    parameters = (
        ParameterSpec("mu", "real", label="Hypothesized mean", default=0.0),
    )

    def run(self) -> dict[str, Any]:
        response = self.y[0]
        handle = self.local_run(
            func=ttest_moments_local,
            keyword_args={"data": self.data_view([response]), "response": response},
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        result = _one_sample_result(
            int(sums["n"]), float(sums["sum"]), float(sums["sumsq"]), self.params["mu"]
        )
        result["variable"] = response
        return result


@register_algorithm
class TTestPaired(FederatedAlgorithm):
    """Paired t-test between two numeric variables of the same subjects."""

    name = "ttest_paired"
    label = "T-Test Paired"
    needs_y = "required"
    needs_x = "none"
    y_types = ("numeric",)

    def run(self) -> dict[str, Any]:
        if len(self.y) != 2:
            raise AlgorithmError("the paired t-test needs exactly two numeric variables")
        first, second = self.y
        handle = self.local_run(
            func=ttest_paired_local,
            keyword_args={
                "data": self.data_view([first, second]),
                "first": first,
                "second": second,
            },
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        result = _one_sample_result(
            int(sums["n"]), float(sums["sum"]), float(sums["sumsq"]), 0.0
        )
        result["variables"] = [first, second]
        result["mean_difference"] = result.pop("mean")
        return result
