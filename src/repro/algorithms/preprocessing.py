"""Shared preprocessing steps for federated algorithms.

Dummy coding a nominal covariate needs the set of levels that actually occur
across the federation; levels listed in the CDE catalogue but absent from
every selected dataset would create all-zero design columns (singular
X^T X).  The observed-level discovery is a textbook use of the SMPC
*disjoint union* operation: each worker contributes the characteristic
vector of its local levels over the catalogued enumeration, and only the
union — never which worker holds which level — is revealed.

Binning a numeric variable needs the same kind of agreement: per-worker
histograms add up only over one shared grid, so a variable whose CDE
declares no range gets the federation's observed range through secure
min/max before anything is binned.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.algorithm import FederatedAlgorithm
from repro.core.context import DataView
from repro.smpc.encoding import DEFAULT_FRACTIONAL_BITS
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)


@udf(data=relation(), variables=literal(), metadata=literal(), return_type=[secure_transfer()])
def observed_levels_local(data, variables, metadata):
    """Characteristic vectors of locally observed levels, per nominal variable."""
    payload = {}
    for variable in variables:
        info = metadata.get(variable, {})
        levels = list(info.get("enumerations", []))
        seen = set(data[variable].tolist())
        present = [int(level in seen) for level in levels]
        payload[variable] = {"data": present, "operation": "union"}
    return payload


@udf(data=relation(), variables=literal(), return_type=[secure_transfer()])
def observed_range_local(data, variables):
    """Local extremes of numeric variables, NULLs ignored."""
    payload = {}
    for variable in variables:
        values = np.asarray(data[variable], dtype=np.float64)
        values = values[~np.isnan(values)]
        # An empty slice sends sentinels that lose every comparison and stay
        # inside the fixed-point range of the secure min/max.
        payload[f"{variable}__min"] = {
            "data": float(values.min()) if len(values) else 1e6,
            "operation": "min",
        }
        payload[f"{variable}__max"] = {
            "data": float(values.max()) if len(values) else -1e6,
            "operation": "max",
        }
    return payload


def resolve_observed_levels(
    algorithm: FederatedAlgorithm, variables: list[str]
) -> dict[str, dict[str, Any]]:
    """Return metadata whose enumerations keep only levels observed anywhere.

    Numeric variables pass through unchanged; nominal variables not in
    ``variables`` keep their catalogued enumerations.
    """
    nominal = [
        v for v in variables if algorithm.metadata.get(v, {}).get("is_categorical")
    ]
    metadata = {k: dict(v) for k, v in algorithm.metadata.items()}
    if not nominal:
        return metadata
    view = algorithm.data_view(variables)
    handle = algorithm.local_run(
        func=observed_levels_local,
        keyword_args={
            "data": view,
            "variables": nominal,
            "metadata": algorithm.metadata,
        },
        share_to_global=[True],
    )
    union = algorithm.ctx.get_transfer_data(handle)
    for variable in nominal:
        catalogued = list(metadata[variable].get("enumerations", []))
        mask = union[variable]
        observed = [level for level, present in zip(catalogued, mask) if present]
        metadata[variable]["enumerations"] = observed
    return metadata


def resolve_observed_ranges(
    algorithm: FederatedAlgorithm, variables: list[str], view: DataView
) -> dict[str, dict[str, Any]]:
    """Return metadata in which every numeric variable of ``variables`` has a
    ``min`` and a ``max``.

    A CDE may declare no range.  Anything binned per worker and summed
    across workers needs one grid for the whole federation, so a missing
    range is replaced by the global extremes of ``view``, obtained through
    the secure ``min``/``max`` operations and widened by one unit of the
    secure path's fixed-point grid: the secure extremes are roundings of the
    true ones, and a grid that ends a rounding error short would drop the
    extreme rows.  Variables with a declared range cost no step.
    """
    metadata = {k: dict(v) for k, v in algorithm.metadata.items()}
    unbounded = [
        v for v in variables
        if not metadata.get(v, {}).get("is_categorical")
        and None in (metadata.get(v, {}).get("min"), metadata.get(v, {}).get("max"))
    ]
    if not unbounded:
        return metadata
    handle = algorithm.local_run(
        func=observed_range_local,
        keyword_args={"data": view, "variables": unbounded},
        share_to_global=[True],
    )
    extremes = algorithm.ctx.get_transfer_data(handle)
    margin = 2.0**-DEFAULT_FRACTIONAL_BITS
    for variable in unbounded:
        info = metadata.setdefault(variable, {})
        info["min"] = float(extremes[f"{variable}__min"]) - margin
        info["max"] = float(extremes[f"{variable}__max"]) + margin
    return metadata
