"""Shared preprocessing steps for federated algorithms.

Dummy coding a nominal covariate needs the set of levels that actually occur
across the federation; levels listed in the CDE catalogue but absent from
every selected dataset would create all-zero design columns (singular
X^T X).  The observed-level discovery is a textbook use of the SMPC
*disjoint union* operation: each worker contributes the characteristic
vector of its local levels over the catalogued enumeration, and only the
union — never which worker holds which level — is revealed.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.algorithm import FederatedAlgorithm
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
