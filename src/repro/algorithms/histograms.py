"""Federated histograms — the dashboard's multi-facets exploration view.

One numeric or nominal variable, optionally stratified by a nominal factor:
numeric variables aggregate per-bin counts over a shared grid (bounds from
the CDE catalogue or secure min/max); nominal variables aggregate level
counts.  All counts travel as secure sums.  Bins smaller than the privacy
threshold are suppressed before release, matching the dashboard's behaviour
for low-count cells.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)

#: Cells with fewer observations than this are reported as 0 (suppressed).
SUPPRESSION_THRESHOLD = 5


@udf(
    data=relation(),
    variable=literal(),
    edges=literal(),
    levels=literal(),
    group_variable=literal(),
    group_levels=literal(),
    return_type=[secure_transfer()],
)
def histogram_counts_local(data, variable, edges, levels, group_variable, group_levels):
    """Per-(group, bin) counts; ``levels`` non-empty means a nominal variable."""
    if group_variable is None:
        groups, n_groups = np.zeros(len(data), dtype=np.intp), 1
    else:
        groups, n_groups = data.codes(group_variable, group_levels), len(group_levels)
    if levels:
        counts = _h.cross_counts((groups, n_groups), (data.codes(variable, levels), len(levels)))
    else:
        values = np.asarray(data[variable], dtype=np.float64)
        counts = [
            _h.histogram_counts(values[groups == index], np.asarray(edges))
            for index in range(n_groups)
        ]
    return {
        f"counts_{index}": {"data": group_counts.tolist(), "operation": "sum"}
        for index, group_counts in enumerate(counts)
    }


@register_algorithm
class Histogram(FederatedAlgorithm):
    """Histogram of one variable, optionally stratified by a nominal factor."""

    name = "histogram"
    label = "Multiple Histograms"
    needs_y = "required"
    needs_x = "optional"
    y_types = ("numeric", "nominal")
    x_types = ("nominal",)
    parameters = (
        ParameterSpec("n_bins", "int", label="Bins for numeric variables",
                      default=20, min_value=2, max_value=200),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import (
            resolve_observed_levels,
            resolve_observed_ranges,
        )

        variable = self.y[0]
        group_variable = self.x[0] if self.x else None
        variables = [variable] + ([group_variable] if group_variable else [])
        metadata = resolve_observed_levels(self, variables)
        info = metadata.get(variable, {})
        is_nominal = bool(info.get("is_categorical"))
        levels = list(info.get("enumerations", [])) if is_nominal else []
        group_levels = (
            list(metadata.get(group_variable, {}).get("enumerations", []))
            if group_variable
            else ["all"]
        )
        if group_variable and not group_levels:
            raise AlgorithmError(f"no observed levels for {group_variable!r}")

        view = self.data_view(variables)
        edges: list[float] = []
        if not is_nominal:
            resolved = resolve_observed_ranges(self, [variable], view)[variable]
            low, high = resolved["min"], resolved["max"]
            if high <= low:
                high = low + 1.0
            edges = np.linspace(float(low), float(high), self.params["n_bins"] + 1).tolist()

        counts = self.ctx.get_transfer_data(self.local_run(
            histogram_counts_local,
            {
                "data": view,
                "variable": variable,
                "edges": edges,
                "levels": levels,
                "group_variable": group_variable,
                "group_levels": group_levels if group_variable else [],
            },
            share_to_global=[True],
        ))
        histograms: dict[str, Any] = {}
        suppressed = 0
        for index, group in enumerate(group_levels):
            raw = np.asarray(counts[f"counts_{index}"], dtype=np.int64)
            small = (raw > 0) & (raw < SUPPRESSION_THRESHOLD)
            suppressed += int(small.sum())
            released = np.where(small, 0, raw)
            histograms[group] = {
                "counts": released.tolist(),
                "total": int(raw.sum()),
            }
        result: dict[str, Any] = {
            "variable": variable,
            "kind": "nominal" if is_nominal else "numeric",
            "groups": group_levels,
            "histograms": histograms,
            "suppressed_cells": suppressed,
        }
        if is_nominal:
            result["levels"] = levels
        else:
            result["edges"] = edges
        if group_variable:
            result["group_variable"] = group_variable
        return result
