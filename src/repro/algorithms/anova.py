"""Federated ANOVA: one-way (group moments) and two-way (nested models).

One-way works from per-group moment sums.  Two-way fits the sequential
(Type I) decomposition ``y ~ A``, ``y ~ A + B``, ``y ~ A + B + A:B`` from a
single aggregated X^T X of the full-interaction design, so it handles
unbalanced data correctly.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.stats

from repro.algorithms import studentized_range
from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)


@udf(
    data=relation(),
    response=literal(),
    factor=literal(),
    levels=literal(),
    return_type=[secure_transfer()],
)
def anova_oneway_local(data, response, factor, levels):
    """Per-level moment sums."""
    values = np.asarray(data[response], dtype=np.float64)
    groups = data[factor]
    payload = {}
    for index, level in enumerate(levels):
        selected = values[groups == level]
        payload[f"n_{index}"] = {"data": int(len(selected)), "operation": "sum"}
        payload[f"sum_{index}"] = {"data": float(selected.sum()), "operation": "sum"}
        payload[f"sumsq_{index}"] = {"data": float((selected**2).sum()), "operation": "sum"}
    return payload


@udf(
    data=relation(),
    response=literal(),
    factor_a=literal(),
    factor_b=literal(),
    levels_a=literal(),
    levels_b=literal(),
    return_type=[secure_transfer()],
)
def anova_twoway_local(data, response, factor_a, factor_b, levels_a, levels_b):
    """Sufficient statistics of the full-interaction design."""
    y = np.asarray(data[response], dtype=np.float64)
    a_values = data[factor_a]
    b_values = data[factor_b]
    n = len(y)
    columns = [np.ones(n)]
    a_dummies = [(a_values == level).astype(np.float64) for level in levels_a[1:]]
    b_dummies = [(b_values == level).astype(np.float64) for level in levels_b[1:]]
    columns.extend(a_dummies)
    columns.extend(b_dummies)
    for da in a_dummies:
        for db in b_dummies:
            columns.append(da * db)
    design = np.column_stack(columns)
    stats = _h.regression_sufficient_stats(design, y)
    return {
        "xtx": {"data": stats["xtx"].tolist(), "operation": "sum"},
        "xty": {"data": stats["xty"].tolist(), "operation": "sum"},
        "yty": {"data": stats["yty"], "operation": "sum"},
        "sum_y": {"data": stats["sum_y"], "operation": "sum"},
        "n": {"data": stats["n"], "operation": "sum"},
    }


def _sse_for_columns(
    xtx: np.ndarray, xty: np.ndarray, yty: float, columns: list[int]
) -> float:
    """Residual sum of squares of the sub-model using the given columns."""
    sub_xtx = xtx[np.ix_(columns, columns)]
    sub_xty = xty[columns]
    coefficients, *_ = np.linalg.lstsq(sub_xtx, sub_xty, rcond=None)
    return float(yty - coefficients @ sub_xty)


def tukey_hsd(
    levels: list[str],
    counts: np.ndarray,
    means: np.ndarray,
    ms_within: float,
    df_within: int,
) -> list[dict[str, Any]]:
    """Tukey's HSD pairwise comparisons from aggregated group statistics.

    Uses the Tukey-Kramer adjustment for unbalanced groups and the
    studentized-range distribution (:mod:`repro.algorithms.studentized_range`)
    for the adjusted p-values — computable entirely from the same secure
    sums the omnibus F-test needs.
    """
    k = len(levels)
    if k < 2:
        return []
    first, second = np.triu_indices(k, 1)
    differences = means[first] - means[second]
    standard_errors = np.sqrt(ms_within / 2.0 * (1.0 / counts[first] + 1.0 / counts[second]))
    with np.errstate(divide="ignore", invalid="ignore"):
        q_statistics = np.where(
            standard_errors > 0, np.abs(differences) / standard_errors, np.inf
        )
    # One grid evaluation for every pair's p-value and one root-find for the
    # critical value, which depends on (k, df) only.
    p_values = studentized_range.sf(q_statistics, k, df_within)
    q_critical = studentized_range.ppf(0.95, k, df_within)
    comparisons = []
    for i, j, difference, standard_error, q_statistic, p_value in zip(
        first.tolist(), second.tolist(), differences.tolist(), standard_errors.tolist(),
        q_statistics.tolist(), p_values.tolist(), strict=True,
    ):
        margin = q_critical * standard_error
        comparisons.append(
            {
                "groups": [levels[i], levels[j]],
                "mean_difference": difference,
                "q_statistic": q_statistic,
                "p_adjusted": min(p_value, 1.0),
                "ci_lower": difference - margin,
                "ci_upper": difference + margin,
                "significant": p_value < 0.05,
            }
        )
    return comparisons


@register_algorithm
class AnovaOneWay(FederatedAlgorithm):
    """One-way ANOVA of a numeric response across the levels of one factor,
    with optional Tukey HSD post-hoc pairwise comparisons."""

    name = "anova_oneway"
    label = "ANOVA One-way"
    needs_y = "required"
    needs_x = "required"
    y_types = ("numeric",)
    x_types = ("nominal",)
    parameters = (
        ParameterSpec("pairwise", "bool", label="Tukey HSD pairwise comparisons",
                      default=True),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        response = self.y[0]
        factor = self.x[0]
        metadata = resolve_observed_levels(self, [response, factor])
        levels = list(metadata.get(factor, {}).get("enumerations", []))
        if len(levels) < 2:
            raise AlgorithmError(f"ANOVA needs at least 2 observed groups, found {levels}")
        handle = self.local_run(
            func=anova_oneway_local,
            keyword_args={
                "data": self.data_view([response, factor]),
                "response": response,
                "factor": factor,
                "levels": levels,
            },
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        counts = np.array([int(sums[f"n_{i}"]) for i in range(len(levels))])
        totals = np.array([float(sums[f"sum_{i}"]) for i in range(len(levels))])
        squares = np.array([float(sums[f"sumsq_{i}"]) for i in range(len(levels))])
        if (counts < 2).any():
            small = [levels[i] for i in np.flatnonzero(counts < 2)]
            raise AlgorithmError(f"groups with fewer than 2 observations: {small}")
        n = int(counts.sum())
        k = len(levels)
        means = totals / counts
        grand_mean = totals.sum() / n
        ss_between = float((counts * (means - grand_mean) ** 2).sum())
        ss_within = float((squares - counts * means**2).sum())
        df_between = k - 1
        df_within = n - k
        ms_between = ss_between / df_between
        ms_within = ss_within / df_within
        if ms_within <= 0:
            raise AlgorithmError("zero within-group variance; F undefined")
        f_statistic = ms_between / ms_within
        p_value = float(scipy.stats.f.sf(f_statistic, df_between, df_within))
        group_stds = np.sqrt(
            np.clip((squares - counts * means**2) / np.maximum(counts - 1, 1), 0.0, None)
        )
        result = {
            "factor": factor,
            "response": response,
            "groups": levels,
            "group_counts": counts.tolist(),
            "group_means": means.tolist(),
            "group_stds": group_stds.tolist(),
            "ss_between": ss_between,
            "ss_within": ss_within,
            "df_between": df_between,
            "df_within": df_within,
            "f_statistic": float(f_statistic),
            "p_value": p_value,
            "eta_squared": ss_between / (ss_between + ss_within),
        }
        if self.params["pairwise"]:
            result["pairwise_comparisons"] = tukey_hsd(
                levels, counts, means, ms_within, df_within
            )
        return result


@register_algorithm
class AnovaTwoWay(FederatedAlgorithm):
    """Two-way ANOVA with interaction (sequential Type I sums of squares)."""

    name = "anova_twoway"
    label = "ANOVA Two-way"
    needs_y = "required"
    needs_x = "required"
    y_types = ("numeric",)
    x_types = ("nominal",)

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        if len(self.x) != 2:
            raise AlgorithmError("two-way ANOVA needs exactly two nominal factors")
        response = self.y[0]
        factor_a, factor_b = self.x
        metadata = resolve_observed_levels(self, [response, factor_a, factor_b])
        levels_a = list(metadata.get(factor_a, {}).get("enumerations", []))
        levels_b = list(metadata.get(factor_b, {}).get("enumerations", []))
        if len(levels_a) < 2 or len(levels_b) < 2:
            raise AlgorithmError("each factor needs at least 2 observed levels")
        handle = self.local_run(
            func=anova_twoway_local,
            keyword_args={
                "data": self.data_view([response, factor_a, factor_b]),
                "response": response,
                "factor_a": factor_a,
                "factor_b": factor_b,
                "levels_a": levels_a,
                "levels_b": levels_b,
            },
            share_to_global=[True],
        )
        sums = self.ctx.get_transfer_data(handle)
        xtx = np.asarray(sums["xtx"], dtype=np.float64)
        xty = np.asarray(sums["xty"], dtype=np.float64)
        yty = float(sums["yty"])
        n = int(sums["n"])
        p_a = len(levels_a) - 1
        p_b = len(levels_b) - 1
        p_ab = p_a * p_b
        index_intercept = [0]
        index_a = list(range(1, 1 + p_a))
        index_b = list(range(1 + p_a, 1 + p_a + p_b))
        index_ab = list(range(1 + p_a + p_b, 1 + p_a + p_b + p_ab))
        sse_0 = _sse_for_columns(xtx, xty, yty, index_intercept)
        sse_a = _sse_for_columns(xtx, xty, yty, index_intercept + index_a)
        sse_ab = _sse_for_columns(xtx, xty, yty, index_intercept + index_a + index_b)
        sse_full = _sse_for_columns(
            xtx, xty, yty, index_intercept + index_a + index_b + index_ab
        )
        df_residual = n - (1 + p_a + p_b + p_ab)
        if df_residual <= 0:
            raise AlgorithmError("not enough observations for the interaction model")
        ms_residual = sse_full / df_residual

        def f_test(ss: float, df: int) -> tuple[float, float]:
            if df <= 0 or ms_residual <= 0:
                return 0.0, 1.0
            f_value = (ss / df) / ms_residual
            return float(f_value), float(scipy.stats.f.sf(f_value, df, df_residual))

        ss_a = max(sse_0 - sse_a, 0.0)
        ss_b = max(sse_a - sse_ab, 0.0)
        ss_ab = max(sse_ab - sse_full, 0.0)
        f_a, p_a_value = f_test(ss_a, p_a)
        f_b, p_b_value = f_test(ss_b, p_b)
        f_ab, p_ab_value = f_test(ss_ab, p_ab)
        return {
            "response": response,
            "factors": [factor_a, factor_b],
            "levels": {factor_a: levels_a, factor_b: levels_b},
            "n_observations": n,
            "terms": {
                factor_a: {"ss": ss_a, "df": p_a, "f": f_a, "p_value": p_a_value},
                factor_b: {"ss": ss_b, "df": p_b, "f": f_b, "p_value": p_b_value},
                f"{factor_a}:{factor_b}": {
                    "ss": ss_ab, "df": p_ab, "f": f_ab, "p_value": p_ab_value,
                },
                "residual": {"ss": sse_full, "df": df_residual},
            },
        }
