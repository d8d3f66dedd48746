"""Helpers imported by generated UDF bodies (the serialization glue).

Generated SQL bodies run inside the engine's Python UDF sandbox; they import
this module to read relations and to (de)serialize and check transfers.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.engine.column import Column, dictionary_encode
from repro.engine.table import Table
from repro.errors import UDFError
from repro.smpc.cluster import valid_bound
from repro.udfgen.iotypes import SECURE_OPERATIONS


#: The immutable scalars a plan holds as they are.  With the containers
#: :func:`private_copy` rebuilds, these are the values whose ``repr``
#: evaluates back to them (a numpy scalar prints as ``np.float64(...)``).
_SCALARS = frozenset({str, bytes, int, float, complex, bool, type(None)})
_SEQUENCES = frozenset({list, tuple, set, frozenset})


def private_copy(value: Any) -> Any:
    """A structural copy of a step's plan, for its body alone.

    Containers are rebuilt and scalars, being immutable, are shared, so a
    body that mutates a literal changes neither the request that carried it
    nor another node's step.  Any other value (an ``ndarray``, an arbitrary
    object) is refused: a literal holds scalars and the built-in containers
    of them.
    """
    kind = type(value)
    if kind in _SCALARS or isinstance(value, np.generic):
        return value
    if kind is dict:
        return {private_copy(key): private_copy(item) for key, item in value.items()}
    if kind in _SEQUENCES:
        return kind(private_copy(item) for item in value)
    raise UDFError(
        f"a UDF literal holds scalars and built-in containers of them, not {kind.__name__}"
    )


class Relation:
    """The in-UDF view of a relational input: named numpy columns.

    The paper's workers hand MonetDB result sets to Python as numpy arrays;
    this wrapper adds the small conveniences algorithm code needs
    (column access, matrix view, row count) without depending on pandas.

    A nominal column is read as codes: :meth:`codes` maps every row to its
    label's position in a list of levels and :meth:`levels` lists the labels
    present, so a body counts and masks with integer arrays.
    ``relation[name]`` still returns labels, gathered on first read.

    A relation bound from a table (:meth:`of`) is the table's own: every
    step that reads the table gets the same read-only arrays, codes and
    stacked matrices, built once.
    """

    def __init__(self, columns: Mapping[str, np.ndarray | Column]) -> None:
        """``columns`` maps each name to an array (a plain mapping: NULL is
        None or NaN) or to a table's :class:`Column` (:meth:`of`)."""
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise UDFError("ragged relation columns")
        self._rows = lengths.pop() if lengths else 0
        self._names = list(columns)
        self._columns = {k: v for k, v in columns.items() if isinstance(v, Column)}
        self._arrays = {k: np.asarray(v) for k, v in columns.items() if not isinstance(v, Column)}
        self._cache: dict[Any, Any] = {}

    @classmethod
    def of(cls, table: Table) -> "Relation":
        """The relation a UDF reads from ``table``, kept in the table's memo.

        Nothing is copied up front.  A column with no NULLs is read as a
        read-only view of the table's values; one with NULLs is rendered once
        (:meth:`Column.to_numpy`).  A VARCHAR column's codes come from its
        dictionary, so its labels are gathered only if ``relation[name]``
        asks for them.

        The relation and every array built from it live as long as
        ``table``.  Bind per-experiment tables only, as the worker does with
        its views: a catalog table bound directly (``SELECT *`` returns the
        table itself) keeps its relation until ``register_table`` or
        ``drop_table`` replaces it.
        """
        relation = table.memo.get(cls)
        if relation is None:
            relation = cls({spec.name: table.column(spec.name) for spec in table.schema})
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
        return list(self._names)

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None:
            array = self._arrays[name] = self._columns[name].to_numpy()
        return array

    def __len__(self) -> int:
        return self._rows

    def codes(self, name: str, levels: Sequence[Any]) -> np.ndarray:
        """Each row's position in ``levels`` of its label, as a read-only int
        array: -1 for NULL and for a label ``levels`` does not name."""
        levels = tuple(levels)

        def build() -> np.ndarray:
            codes, labels, nulls = self._dictionary(name)
            position = {level: index for index, level in enumerate(levels)}
            lookup = np.array([position.get(label, -1) for label in labels.tolist()], dtype=np.intp)
            out = lookup.take(codes)
            out[nulls] = -1
            out.flags.writeable = False
            return out

        return self.cached(("codes", name, levels), build)

    def levels(self, name: str) -> list[Any]:
        """The sorted distinct labels of a nominal column's non-NULL rows."""
        codes, labels, nulls = self._dictionary(name)
        used = np.zeros(len(labels), dtype=bool)
        used[codes[~nulls]] = True
        return sorted(labels[used].tolist())

    def nulls(self, name: str) -> np.ndarray:
        """A nominal column's NULL mask (a plain mapping marks NULL as None)."""
        return self._dictionary(name)[2]

    def _dictionary(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(codes, labels, NULL mask) of a nominal column: a VARCHAR column's
        own dictionary, or the labels encoded once."""

        def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            column = self._columns.get(name)
            if column is not None and column.codes is not None:
                return column.codes, column.labels, column.nulls
            codes, labels = dictionary_encode(self[name])
            nulls = column.nulls if column is not None else np.equal(labels, None)[codes]
            return codes, labels, nulls

        return self.cached(("dictionary", name), build)

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """The named (or all) columns as a read-only (n, k) float64 matrix,
        stacked once per relation."""
        names = tuple(names) if names is not None else tuple(self.columns)
        return self.cached(
            ("matrix", names), lambda: stack_columns([self[n] for n in names], len(self))
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
