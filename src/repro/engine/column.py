"""Columnar storage: a typed numpy array (int codes into a dictionary, for
VARCHAR) plus an explicit NULL mask."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.engine.types import SQLType, coerce_scalar
from repro.errors import TypeMismatchError


class Column:
    """A single column of a table: values plus a NULL mask.

    ``values`` always has the canonical numpy dtype of ``sql_type``; positions
    where ``nulls`` is True hold an arbitrary placeholder and must never be
    read by consumers.

    A VARCHAR column is dictionary-coded, as columnar engines such as MonetDB
    store strings: ``codes`` (int32, one per row) index ``labels`` (distinct
    strings, read-only, shared between the columns derived from one another).
    Its ``values`` is ``labels[codes]``, gathered on first read and
    read-only.  Other types keep ``codes`` and ``labels`` None.
    """

    __slots__ = ("sql_type", "nulls", "codes", "labels", "_values", "_has_nulls")

    def __init__(self, sql_type: SQLType, values: np.ndarray, nulls: np.ndarray) -> None:
        if values.ndim != 1 or nulls.ndim != 1 or len(values) != len(nulls):
            raise TypeMismatchError("column values and null mask must be 1-D and equal length")
        self.sql_type = sql_type
        self.nulls = nulls
        self._has_nulls: bool | None = None
        self.codes = self.labels = None
        self._values: np.ndarray | None = values
        if sql_type == SQLType.VARCHAR:
            # One hash pass; a NULL's placeholder is coded as "".
            if np.count_nonzero(nulls):
                values = np.where(nulls, "", values)
            self.codes, self.labels = dictionary_encode(values)
            self._values = None

    # ------------------------------------------------------------------ build

    @classmethod
    def from_codes(cls, codes: np.ndarray, labels: Sequence[str] | np.ndarray,
                   nulls: np.ndarray | None = None) -> "Column":
        """A VARCHAR column from integer codes into distinct ``labels``,
        hashing nothing.  An ndarray of labels is taken as the read-only
        dictionary of another column and shared; a sequence is copied."""
        column = cls.__new__(cls)
        column.sql_type = SQLType.VARCHAR
        column.codes = codes if codes.dtype == np.int32 else codes.astype(np.int32)
        if not isinstance(labels, np.ndarray):
            labels = _read_only(np.array(labels, dtype=object))
        column.labels = labels
        column.nulls = np.zeros(len(codes), dtype=bool) if nulls is None else nulls
        column._values = None
        column._has_nulls = None
        return column

    @classmethod
    def from_values(cls, sql_type: SQLType, raw: Iterable[Any]) -> "Column":
        """Build a column from Python scalars, treating None/NaN as NULL."""
        items = list(raw)
        nulls = np.zeros(len(items), dtype=bool)
        coerced: list[Any] = []
        placeholder = _placeholder(sql_type)
        for i, item in enumerate(items):
            if item is None or _is_nan(item):
                nulls[i] = True
                coerced.append(placeholder)
            else:
                coerced.append(coerce_scalar(item, sql_type))
        values = np.array(coerced, dtype=sql_type.numpy_dtype)
        return cls(sql_type, values, nulls)

    @classmethod
    def from_numpy(cls, sql_type: SQLType, array: np.ndarray, nulls: np.ndarray | None = None) -> "Column":
        """Wrap a numpy array, casting to the canonical dtype.

        For REAL columns, NaNs in ``array`` are absorbed into the NULL mask.
        """
        values = np.asarray(array)
        if values.dtype != sql_type.numpy_dtype:
            values = values.astype(sql_type.numpy_dtype)
        elif sql_type != SQLType.VARCHAR:  # a VARCHAR keeps codes, not the array
            values = values.copy()
        if nulls is None:
            nulls = np.zeros(len(values), dtype=bool)
        else:
            nulls = np.asarray(nulls, dtype=bool).copy()
        if sql_type == SQLType.REAL:
            nan_mask = np.isnan(values)
            if nan_mask.any():
                nulls = nulls | nan_mask
                values = np.where(nan_mask, 0.0, values)
        return cls(sql_type, values, nulls)

    # -------------------------------------------------------------- accessors

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _read_only(self.labels.take(self.codes))
        return self._values

    def __len__(self) -> int:
        return len(self.nulls)

    def __getitem__(self, index: int) -> Any:
        if self.nulls[index]:
            return None
        if self.codes is not None:
            return self.labels[self.codes[index]]
        value = self.values[index]
        if self.sql_type == SQLType.INT:
            return int(value)
        if self.sql_type == SQLType.REAL:
            return float(value)
        return bool(value)

    def to_list(self) -> list[Any]:
        """Materialize as a list of Python scalars with None for NULLs."""
        items = self.values.tolist()
        if self.has_nulls:
            for index in np.flatnonzero(self.nulls).tolist():
                items[index] = None
        return items

    def distinct(self) -> list[Any]:
        """The sorted distinct values of a VARCHAR column's non-NULL rows,
        read from its dictionary."""
        used = np.zeros(len(self.labels), dtype=bool)
        used[self.codes[~self.nulls] if self.has_nulls else self.codes] = True
        return sorted(self.labels[used].tolist())

    @property
    def has_nulls(self) -> bool:
        """Whether any row is NULL; the mask is scanned once per column."""
        if self._has_nulls is None:
            self._has_nulls = bool(self.nulls.any())
        return self._has_nulls

    def to_numpy(self) -> np.ndarray:
        """A read-only array of the values, NULLs rendered as NaN or None.

        With no NULLs this is a view of ``values``: no copy, and a write
        raises.  Otherwise NULLs render as None (VARCHAR) or NaN, INT/BOOL
        widened to float so NULL can be NaN, in a new array.
        """
        if not self.has_nulls:
            out = self.values.view()
        elif self.sql_type == SQLType.VARCHAR:
            out = self.values.copy()
            out[self.nulls] = None
        else:
            out = self.values.astype(np.float64)
            out[self.nulls] = np.nan
        out.flags.writeable = False
        return out

    # ------------------------------------------------------------ combinators

    def take(self, indices: np.ndarray) -> "Column":
        if self.codes is not None:
            return Column.from_codes(self.codes[indices], self.labels, self.nulls[indices])
        return Column(self.sql_type, self.values[indices], self.nulls[indices])

    def concat(self, other: "Column") -> "Column":
        if other.sql_type != self.sql_type:
            raise TypeMismatchError(
                f"cannot concatenate {self.sql_type.value} with {other.sql_type.value}"
            )
        nulls = np.concatenate([self.nulls, other.nulls])
        if self.codes is None:
            return Column(self.sql_type, np.concatenate([self.values, other.values]), nulls)
        # Merge the dictionaries: this side's labels keep their codes,
        # the other side's are remapped into the merged list.
        merged = dict.fromkeys(self.labels.tolist())
        merged.update(dict.fromkeys(other.labels.tolist()))
        index = {label: code for code, label in enumerate(merged)}
        remap = np.array([index[label] for label in other.labels.tolist()], dtype=np.int32)
        codes = np.concatenate([self.codes, remap.take(other.codes)])
        return Column.from_codes(codes, list(merged), nulls)

    def cast(self, target: SQLType) -> "Column":
        """Cast to another SQL type; NULLs propagate.  The same type copies."""
        if target == self.sql_type:
            if self.codes is not None:
                return Column.from_codes(self.codes.copy(), self.labels, self.nulls.copy())
            return Column(self.sql_type, self.values.copy(), self.nulls.copy())
        return Column.from_values(target, [None if n else _cast_scalar(v, self.sql_type, target)
                                           for v, n in zip(self.values, self.nulls)])


def dictionary_encode(values: Sequence[Any] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes and distinct labels of a sequence of strings, in first-seen
    order: one C-level hash pass to find the labels, one to look them up."""
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    labels = list(dict.fromkeys(items))
    if len(labels) == len(items):  # every row its own label (a one-row transfer)
        codes = np.arange(len(items), dtype=np.int32)
    else:
        index = {label: code for code, label in enumerate(labels)}
        codes = np.fromiter(map(index.__getitem__, items), dtype=np.int32, count=len(items))
    return codes, _read_only(np.array(labels, dtype=object))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _is_nan(value: Any) -> bool:
    return isinstance(value, (float, np.floating)) and np.isnan(value)


def _placeholder(sql_type: SQLType) -> Any:
    if sql_type == SQLType.INT:
        return 0
    if sql_type == SQLType.REAL:
        return 0.0
    if sql_type == SQLType.BOOL:
        return False
    return ""


def _cast_scalar(value: Any, source: SQLType, target: SQLType) -> Any:
    if target == SQLType.VARCHAR:
        if source == SQLType.BOOL:
            return "true" if value else "false"
        return str(value)
    if target == SQLType.REAL:
        return float(value)
    if target == SQLType.INT:
        if source == SQLType.VARCHAR:
            return int(str(value))
        return int(value)
    if target == SQLType.BOOL:
        if source == SQLType.VARCHAR:
            lowered = str(value).strip().lower()
            if lowered in ("true", "t", "1"):
                return True
            if lowered in ("false", "f", "0"):
                return False
            raise TypeMismatchError(f"cannot cast {value!r} to BOOL")
        return bool(value)
    raise TypeMismatchError(f"unsupported cast {source.value} -> {target.value}")
