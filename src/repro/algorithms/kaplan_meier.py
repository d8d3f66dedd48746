"""Federated Kaplan-Meier estimator with Greenwood intervals and log-rank.

Exact Kaplan-Meier needs individual event times, which never leave a worker.
The federated estimator discretizes time on a shared grid (bounds via secure
min/max, resolution a parameter): workers return per-bin event and censoring
counts, secure sums combine them, and the master computes the product-limit
curve per group plus the log-rank test across groups.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.special import chdtrc

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)


@udf(data=relation(), time_variable=literal(), return_type=[secure_transfer()])
def km_bounds_local(data, time_variable):
    """Global time range for the shared grid."""
    times = np.asarray(data[time_variable], dtype=np.float64)
    return {
        "min": {"data": float(times.min()), "operation": "min"},
        "max": {"data": float(times.max()), "operation": "max"},
        "n": {"data": int(len(times)), "operation": "sum"},
    }


@udf(
    data=relation(),
    time_variable=literal(),
    event_variable=literal(),
    group_variable=literal(),
    groups=literal(),
    edges=literal(),
    return_type=[secure_transfer()],
)
def km_counts_local(data, time_variable, event_variable, group_variable, groups, edges):
    """Per-group, per-bin event and censoring counts."""
    times = np.asarray(data[time_variable], dtype=np.float64)
    events = np.asarray(data[event_variable], dtype=np.float64) > 0.5
    grid = np.asarray(edges, dtype=np.float64)
    payload = {}
    if group_variable is None:
        group_masks = {"all": np.ones(len(times), dtype=bool)}
    else:
        codes = data.codes(group_variable, groups)
        group_masks = {g: codes == index for index, g in enumerate(groups)}
    for index, (group, mask) in enumerate(group_masks.items()):
        event_hist = _h.histogram_counts(times[mask & events], grid)
        censor_hist = _h.histogram_counts(times[mask & ~events], grid)
        payload[f"events_{index}"] = {"data": event_hist.tolist(), "operation": "sum"}
        payload[f"censored_{index}"] = {"data": censor_hist.tolist(), "operation": "sum"}
        payload[f"n_{index}"] = {"data": int(mask.sum()), "operation": "sum"}
    return payload


def km_curve(events: np.ndarray, censored: np.ndarray, n_start: int) -> dict[str, Any]:
    """Product-limit estimate with Greenwood standard errors over a grid.

    Censored subjects in a bin are treated as at risk for that bin's events
    (the usual convention when ties are grouped).
    """
    n_bins = len(events)
    at_risk = np.zeros(n_bins, dtype=np.float64)
    survival = np.zeros(n_bins, dtype=np.float64)
    variance_terms = 0.0
    current = float(n_start)
    s = 1.0
    greenwood = []
    for j in range(n_bins):
        at_risk[j] = current
        d = float(events[j])
        if current > 0 and d > 0:
            s *= 1.0 - d / current
            if current > d:
                variance_terms += d / (current * (current - d))
        survival[j] = s
        greenwood.append(s * np.sqrt(variance_terms) if s > 0 else 0.0)
        current -= d + float(censored[j])
        current = max(current, 0.0)
    se = np.asarray(greenwood)
    return {
        "survival": survival.tolist(),
        "at_risk": at_risk.tolist(),
        "std_err": se.tolist(),
        "ci_lower": np.clip(survival - 1.96 * se, 0.0, 1.0).tolist(),
        "ci_upper": np.clip(survival + 1.96 * se, 0.0, 1.0).tolist(),
    }


def _median_survival(survival: list[float], grid_times: np.ndarray) -> float | None:
    """First grid time at which survival drops to 0.5 or below (None if the
    curve never reaches it within follow-up)."""
    for time, probability in zip(grid_times, survival):
        if probability <= 0.5:
            return float(time)
    return None


def log_rank_test(
    group_events: list[np.ndarray], group_at_risk: list[np.ndarray]
) -> dict[str, float]:
    """Log-rank chi-square across groups from binned counts."""
    k = len(group_events)
    observed = np.array([events.sum() for events in group_events], dtype=np.float64)
    expected = np.zeros(k)
    n_bins = len(group_events[0])
    for j in range(n_bins):
        at_risk = np.array([risk[j] for risk in group_at_risk])
        total_at_risk = at_risk.sum()
        total_events = sum(events[j] for events in group_events)
        if total_at_risk > 0:
            expected += total_events * at_risk / total_at_risk
    with np.errstate(divide="ignore", invalid="ignore"):
        chi_square = float(np.nansum((observed - expected) ** 2 / np.where(expected > 0, expected, np.nan)))
    df = k - 1
    return {
        "chi_square": chi_square,
        "degrees_of_freedom": df,
        "p_value": float(chdtrc(df, chi_square)),
        "observed": observed.tolist(),
        "expected": expected.tolist(),
    }


@register_algorithm
class KaplanMeier(FederatedAlgorithm):
    """Kaplan-Meier survival curves, optionally stratified by one factor."""

    name = "kaplan_meier"
    label = "Kaplan-Meier Estimator"
    needs_y = "required"
    needs_x = "optional"
    y_types = ("numeric",)
    x_types = ("nominal",)
    parameters = (
        ParameterSpec("n_bins", "int", label="Time-grid resolution", default=50,
                      min_value=5, max_value=500),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        if len(self.y) != 2:
            raise AlgorithmError(
                "Kaplan-Meier needs two y variables: time-to-event and event indicator"
            )
        time_variable, event_variable = self.y
        group_variable = self.x[0] if self.x else None
        variables = [time_variable, event_variable] + ([group_variable] if group_variable else [])

        if group_variable:
            metadata = resolve_observed_levels(self, variables)
            groups = list(metadata.get(group_variable, {}).get("enumerations", []))
            if len(groups) < 1:
                raise AlgorithmError(f"no observed levels for {group_variable!r}")
        else:
            groups = ["all"]

        bounds_handle = self.local_run(
            func=km_bounds_local,
            keyword_args={
                "data": self.data_view(variables),
                "time_variable": time_variable,
            },
            share_to_global=[True],
        )
        bounds = self.ctx.get_transfer_data(bounds_handle)
        t_min, t_max = float(bounds["min"]), float(bounds["max"])
        if t_max <= t_min:
            t_max = t_min + 1.0
        n_bins = self.params["n_bins"]
        edges = np.linspace(t_min, t_max, n_bins + 1)

        counts_handle = self.local_run(
            func=km_counts_local,
            keyword_args={
                "data": self.data_view(variables),
                "time_variable": time_variable,
                "event_variable": event_variable,
                "group_variable": group_variable,
                "groups": groups,
                "edges": edges.tolist(),
            },
            share_to_global=[True],
        )
        counts = self.ctx.get_transfer_data(counts_handle)
        curves: dict[str, Any] = {}
        group_events = []
        group_at_risk = []
        grid_times = edges[1:]
        for index, group in enumerate(groups):
            events = np.asarray(counts[f"events_{index}"], dtype=np.int64)
            censored = np.asarray(counts[f"censored_{index}"], dtype=np.int64)
            n_group = int(counts[f"n_{index}"])
            curve = km_curve(events, censored, n_group)
            curve["n_subjects"] = n_group
            curve["n_events"] = int(events.sum())
            curve["median_survival"] = _median_survival(curve["survival"], grid_times)
            curves[group] = curve
            group_events.append(events.astype(np.float64))
            group_at_risk.append(np.asarray(curve["at_risk"]))
        result: dict[str, Any] = {
            "time_grid": edges[1:].tolist(),
            "groups": groups,
            "curves": curves,
            "n_observations": int(bounds["n"]),
        }
        if len(groups) > 1:
            result["log_rank"] = log_rank_test(group_events, group_at_risk)
        return result
