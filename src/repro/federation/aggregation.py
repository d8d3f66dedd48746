"""Plain (non-secure) aggregation of secure-transfer payloads on the master.

The paper's non-secure path ships local results through remote/merge tables
and "perform[s] the aggregation there" — on the Master, in the clear.  The
operations match the SMPC cluster's exactly (sum, product, min, max,
disjoint union) so an algorithm runs unchanged on either path; only *where*
the aggregation happens differs.  A declared ``"bound"`` is checked with
the cluster's own :func:`declared_bound`, so a payload the secure path
refuses is refused here too.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import FederationError
from repro.smpc.cluster import declared_bound


def aggregate_plain(transfers: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate per-worker secure-transfer dicts in the clear."""
    if not transfers:
        raise FederationError("cannot aggregate zero transfers")
    keys = list(transfers[0])
    for transfer in transfers[1:]:
        if list(transfer) != keys:
            raise FederationError("workers disagree on transfer keys")
    result: dict[str, Any] = {}
    for key in keys:
        operations = {t[key]["operation"] for t in transfers}
        if len(operations) != 1:
            raise FederationError(f"key {key!r}: conflicting operations")
        operation = operations.pop()
        entries = [t[key] for t in transfers]
        arrays = [np.asarray(entry["data"], dtype=np.float64) for entry in entries]
        declared_bound(f"key {key!r}", operation, entries, arrays, FederationError)
        scalar = not isinstance(entries[0]["data"], (list, tuple))
        result[key] = _aggregate_one(operation, arrays, scalar)
    return result


def _aggregate_one(operation: str, arrays: list[np.ndarray], scalar: bool) -> Any:
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise FederationError("transfer shape mismatch across workers")
    stacked = np.stack(arrays)
    if operation == "sum":
        combined = stacked.sum(axis=0)
    elif operation == "product":
        combined = stacked.prod(axis=0)
    elif operation == "min":
        combined = stacked.min(axis=0)
    elif operation == "max":
        combined = stacked.max(axis=0)
    elif operation == "union":
        combined = (stacked.sum(axis=0) > 0).astype(np.int64)
    else:
        raise FederationError(f"unsupported aggregation operation {operation!r}")
    if scalar:
        value = combined.item()
        return int(value) if operation == "union" else float(value)
    if operation == "union":
        return combined.astype(int).tolist()
    return combined.tolist()
