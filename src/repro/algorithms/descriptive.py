"""Descriptive statistics — the MIP dashboard's first-contact analysis.

Reproduces the Figure 3 tables: per-dataset columns with datapoint counts,
NAs, SE, mean, min, quartiles and max for numeric variables (and level
counts for nominal ones), plus pooled statistics across all selected
datasets computed through the secure path (sums, secure min/max, histogram
quantile approximation).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.udfgen import literal, relation, secure_transfer, transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)

@udf(
    data=relation(),
    variables=literal(),
    metadata=literal(),
    suppression_threshold=literal(),
    return_type=[transfer()],
)
def descriptive_local(data, variables, metadata, suppression_threshold):
    """Per-dataset statistics (each dataset lives on exactly one worker).

    Datasets with fewer non-NA datapoints than the suppression threshold
    release only their counts — the dashboard's "NOT ENOUGH DATA" cells.
    """
    datasets = data.levels("dataset")
    dataset_codes = data.codes("dataset", datasets)
    result = {}
    for index, code in enumerate(datasets):
        mask = dataset_codes == index
        stats = {}
        for variable in variables:
            info = metadata.get(variable, {})
            if info.get("is_categorical"):
                levels = list(info.get("enumerations", []))
                count = int(mask.sum())
                # An undeclared label is a datapoint: NULLs come from the mask.
                na = int(data.nulls(variable)[mask].sum())
                entry = {"kind": "nominal", "count": count, "datapoints": count - na, "na": na}
                if count - na >= suppression_threshold:
                    counts = _h.category_counts(data.codes(variable, levels)[mask], len(levels))
                    entry["levels"] = dict(zip(levels, counts.tolist()))
                else:
                    entry["suppressed"] = True
                stats[variable] = entry
            else:
                numeric = np.asarray(data[variable], dtype=np.float64)[mask]
                non_null = numeric[~np.isnan(numeric)]
                entry = {
                    "kind": "numeric",
                    "count": int(len(numeric)),
                    "datapoints": int(len(non_null)),
                    "na": int(len(numeric) - len(non_null)),
                }
                if len(non_null) >= suppression_threshold and len(non_null):
                    std = float(np.std(non_null, ddof=1)) if len(non_null) > 1 else 0.0
                    quartiles = np.percentile(non_null, [25, 50, 75])
                    entry.update(
                        mean=float(np.mean(non_null)),
                        std=std,
                        se=std / float(np.sqrt(len(non_null))),
                        min=float(np.min(non_null)),
                        q1=float(quartiles[0]),
                        q2=float(quartiles[1]),
                        q3=float(quartiles[2]),
                        max=float(np.max(non_null)),
                    )
                elif len(non_null) < suppression_threshold:
                    entry["suppressed"] = True
                stats[variable] = entry
        result[code] = stats
    return result


@udf(
    data=relation(),
    variables=literal(),
    metadata=literal(),
    n_bins=literal(),
    return_type=[secure_transfer()],
)
def descriptive_pooled_local(data, variables, metadata, n_bins):
    """Pooled statistics via secure aggregation: sums, min/max, histograms.

    Every numeric variable has a range here (declared, or resolved by the
    flow), so its min/max entries declare ``bound`` = max(|min|, |max|) and
    the secure comparison runs at that width.  A slice with a value outside
    the bound (data never harmonized against its CDEs) omits it, and the
    key compares at full width.  An empty slice sends the opposite extreme
    of the range, which loses every comparison and stays inside the bound.
    """
    payload = {}
    for variable in variables:
        info = metadata.get(variable, {})
        if info.get("is_categorical"):
            levels = list(info.get("enumerations", []))
            counts = _h.category_counts(data.codes(variable, levels), len(levels))
            payload[f"{variable}__levels"] = {"data": counts.tolist(), "operation": "sum"}
            payload[f"{variable}__count"] = {"data": len(data), "operation": "sum"}
            payload[f"{variable}__na"] = {
                "data": int(data.nulls(variable).sum()),
                "operation": "sum",
            }
            continue
        numeric = np.asarray(data[variable], dtype=np.float64)
        non_null = numeric[~np.isnan(numeric)]
        # One grid for every worker: the flow fills in a range the CDE lacks.
        edges = np.linspace(info["min"], info["max"], n_bins + 1)
        histogram = _h.histogram_counts(non_null, edges) if len(non_null) else np.zeros(n_bins, dtype=np.int64)
        payload[f"{variable}__count"] = {"data": int(len(numeric)), "operation": "sum"}
        payload[f"{variable}__na"] = {
            "data": int(len(numeric) - len(non_null)),
            "operation": "sum",
        }
        payload[f"{variable}__sum"] = {
            "data": float(non_null.sum()) if len(non_null) else 0.0,
            "operation": "sum",
        }
        payload[f"{variable}__sumsq"] = {
            "data": float((non_null**2).sum()) if len(non_null) else 0.0,
            "operation": "sum",
        }
        low, high = float(info["min"]), float(info["max"])
        bound = max(abs(low), abs(high)) or None
        if bound is not None and len(non_null) and np.abs(non_null).max() > bound:
            bound = None  # values outside the declared range: compare at full width
        payload[f"{variable}__min"] = {
            "data": float(non_null.min()) if len(non_null) else high,
            "operation": "min",
            "bound": bound,
        }
        payload[f"{variable}__max"] = {
            "data": float(non_null.max()) if len(non_null) else low,
            "operation": "max",
            "bound": bound,
        }
        payload[f"{variable}__hist"] = {"data": histogram.tolist(), "operation": "sum"}
    return payload


def _histogram_quantile(histogram: np.ndarray, edges: np.ndarray, q: float) -> float:
    """Approximate a quantile from binned counts by linear interpolation."""
    total = histogram.sum()
    if total == 0:
        return float("nan")
    target = q * total
    cumulative = np.cumsum(histogram)
    index = int(np.searchsorted(cumulative, target))
    index = min(index, len(histogram) - 1)
    previous = cumulative[index - 1] if index > 0 else 0
    in_bin = histogram[index]
    fraction = (target - previous) / in_bin if in_bin > 0 else 0.0
    return float(edges[index] + fraction * (edges[index + 1] - edges[index]))


@register_algorithm
class DescriptiveStatistics(FederatedAlgorithm):
    """Per-dataset and pooled descriptive statistics for chosen variables."""

    name = "descriptive_stats"
    label = "Descriptive Statistics"
    needs_y = "required"
    needs_x = "none"
    y_types = ("numeric", "nominal")
    parameters = (
        ParameterSpec("n_bins", "int", label="Histogram bins for pooled quantiles",
                      default=100, min_value=10, max_value=1000),
        ParameterSpec("suppression_threshold", "int",
                      label="Minimum datapoints to show per-dataset statistics",
                      default=10, min_value=0),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_ranges

        variables = list(self.y)
        n_bins = self.params["n_bins"]
        view = self.data_view(["dataset"] + variables, dropna=False)

        per_dataset_handle = self.local_run(
            func=descriptive_local,
            keyword_args={
                "data": view,
                "variables": variables,
                "metadata": self.metadata,
                "suppression_threshold": self.params["suppression_threshold"],
            },
            share_to_global=[True],
        )
        per_worker = self.ctx.get_transfer_data(per_dataset_handle)
        per_dataset: dict[str, Any] = {}
        for worker_stats in per_worker:
            per_dataset.update(worker_stats)

        metadata = resolve_observed_ranges(self, variables, view)
        pooled_handle = self.local_run(
            func=descriptive_pooled_local,
            keyword_args={
                "data": view,
                "variables": variables,
                "metadata": metadata,
                "n_bins": n_bins,
            },
            share_to_global=[True],
        )
        aggregates = self.ctx.get_transfer_data(pooled_handle)
        pooled = self._assemble_pooled(variables, aggregates, n_bins, metadata)
        return {"per_dataset": per_dataset, "pooled": pooled, "variables": variables}

    @staticmethod
    def _assemble_pooled(
        variables: list[str],
        aggregates: dict[str, Any],
        n_bins: int,
        metadata: dict[str, dict[str, Any]],
    ) -> dict[str, Any]:
        pooled: dict[str, Any] = {}
        for variable in variables:
            info = metadata.get(variable, {})
            count = int(aggregates[f"{variable}__count"])
            na = int(aggregates[f"{variable}__na"])
            if info.get("is_categorical"):
                levels = list(info.get("enumerations", []))
                counts = aggregates[f"{variable}__levels"]
                pooled[variable] = {
                    "kind": "nominal",
                    "count": count,
                    "datapoints": count - na,
                    "na": na,
                    "levels": {level: int(c) for level, c in zip(levels, counts)},
                }
                continue
            datapoints = count - na
            total = float(aggregates[f"{variable}__sum"])
            total_squares = float(aggregates[f"{variable}__sumsq"])
            entry: dict[str, Any] = {
                "kind": "numeric",
                "count": count,
                "datapoints": datapoints,
                "na": na,
            }
            if datapoints > 0:
                mean = total / datapoints
                variance = max(
                    (total_squares - datapoints * mean**2) / max(datapoints - 1, 1), 0.0
                )
                std = float(np.sqrt(variance))
                histogram = np.asarray(aggregates[f"{variable}__hist"], dtype=np.int64)
                edges = np.linspace(float(info["min"]), float(info["max"]), n_bins + 1)
                entry.update(
                    mean=mean,
                    std=std,
                    se=std / float(np.sqrt(datapoints)),
                    min=float(aggregates[f"{variable}__min"]),
                    max=float(aggregates[f"{variable}__max"]),
                    q1=_histogram_quantile(histogram, edges, 0.25),
                    q2=_histogram_quantile(histogram, edges, 0.50),
                    q3=_histogram_quantile(histogram, edges, 0.75),
                )
            pooled[variable] = entry
        return pooled
