"""Helpers imported by generated UDF bodies (the serialization glue).

Generated SQL bodies run inside the engine's Python UDF sandbox; they import
this module to read relations and to (de)serialize and check transfers.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.engine.table import Table
from repro.errors import UDFError
from repro.smpc.cluster import valid_bound
from repro.udfgen.iotypes import SECURE_OPERATIONS


#: Names a plan's ``repr`` uses for non-finite floats (``nan``, ``inf``,
#: ``-inf``), bound when the generated body evaluates its plan.
NON_FINITE = {"nan": float("nan"), "inf": float("inf")}


class Relation:
    """The in-UDF view of a relational input: named numpy columns.

    The paper's workers hand MonetDB result sets to Python as numpy arrays;
    this wrapper adds the small conveniences algorithm code needs
    (column access, matrix view, row count) without depending on pandas.

    A relation bound from a table (:meth:`of`) is the table's own: every
    step that reads the table gets the same read-only arrays and the same
    stacked matrices, built once.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise UDFError("ragged relation columns")
        self._columns = {k: np.asarray(v) for k, v in columns.items()}
        self._cache: dict[Any, Any] = {}

    @classmethod
    def of(cls, table: Table) -> "Relation":
        """The relation a UDF reads from ``table``, kept in the table's memo.

        A column with no NULLs arrives as a read-only view of the table's
        values; one with NULLs is rendered once (:meth:`Column.to_numpy`).

        The relation and every matrix stacked from it live as long as
        ``table``.  Bind per-experiment tables only, as the worker does with
        its views: a catalog table bound directly (``SELECT *`` returns the
        table itself) keeps its relation until an INSERT or DROP replaces it.
        """
        relation = table.memo.get(cls)
        if relation is None:
            relation = cls({spec.name: table.column(spec.name).to_numpy() for spec in table.schema})
            table.memo[cls] = relation
        return relation

    def cached(self, key: Any, build: Callable[[], Any]) -> Any:
        """``build()`` once per ``key`` for this relation; later calls share
        the first result, so it must be read-only."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """The named (or all) columns as a read-only (n, k) float64 matrix,
        stacked once per relation."""
        names = tuple(names) if names is not None else tuple(self.columns)
        return self.cached(
            ("matrix", names), lambda: stack_columns([self._columns[n] for n in names], len(self))
        )


def stack_columns(columns: Sequence[Any], n_rows: int) -> np.ndarray:
    """Stack 1-D columns side by side into a read-only (n_rows, k) float64
    matrix."""
    if columns:
        matrix = np.column_stack([np.asarray(column, dtype=np.float64) for column in columns])
    else:
        matrix = np.empty((n_rows, 0))
    matrix.flags.writeable = False
    return matrix


# --------------------------------------------------------------- transfer


class _TransferEncoder(json.JSONEncoder):
    def default(self, o: Any) -> Any:
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return super().default(o)


def serialize_transfer(obj: Mapping[str, Any]) -> str:
    """JSON-encode a transfer dict (numpy arrays become nested lists)."""
    if not isinstance(obj, Mapping):
        raise UDFError(f"transfer must be a dict, got {type(obj).__name__}")
    return json.dumps(obj, cls=_TransferEncoder)


def deserialize_transfer(blob: str) -> dict[str, Any]:
    """Inverse of :func:`serialize_transfer`."""
    return json.loads(blob)


def validate_secure_transfer(obj: Mapping[str, Any]) -> dict[str, Any]:
    """Check a secure-transfer dict: every entry names data and an operation,
    and an optional ``"bound"`` (|value| <= bound) is a finite real > 0."""
    if not isinstance(obj, Mapping):
        raise UDFError("secure_transfer must be a dict")
    for key, entry in obj.items():
        if not isinstance(entry, Mapping) or "data" not in entry or "operation" not in entry:
            raise UDFError(
                f"secure_transfer entry {key!r} must be {{'data': ..., 'operation': ...}}"
            )
        if entry["operation"] not in SECURE_OPERATIONS:
            raise UDFError(
                f"secure_transfer entry {key!r}: unknown operation {entry['operation']!r}"
            )
        bound = entry.get("bound")
        if bound is not None and not valid_bound(bound):
            raise UDFError(
                f"secure_transfer entry {key!r}: bound must be a finite real > 0, got {bound!r}"
            )
    return {k: dict(v) for k, v in obj.items()}
