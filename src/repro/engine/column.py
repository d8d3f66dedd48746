"""Columnar storage: a typed numpy array plus an explicit NULL mask."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.types import SQLType, coerce_scalar
from repro.errors import TypeMismatchError


class Column:
    """A single column of a table: values plus a NULL mask.

    ``values`` always has the canonical numpy dtype of ``sql_type``; positions
    where ``nulls`` is True hold an arbitrary placeholder and must never be
    read by consumers.
    """

    __slots__ = ("sql_type", "values", "nulls", "_has_nulls")

    def __init__(self, sql_type: SQLType, values: np.ndarray, nulls: np.ndarray) -> None:
        if values.ndim != 1 or nulls.ndim != 1 or len(values) != len(nulls):
            raise TypeMismatchError("column values and null mask must be 1-D and equal length")
        self.sql_type = sql_type
        self.values = values
        self.nulls = nulls
        self._has_nulls: bool | None = None

    # ------------------------------------------------------------------ build

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
        else:
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

    @classmethod
    def empty(cls, sql_type: SQLType) -> "Column":
        return cls(sql_type, np.empty(0, dtype=sql_type.numpy_dtype), np.empty(0, dtype=bool))

    # -------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> Any:
        if self.nulls[index]:
            return None
        value = self.values[index]
        if self.sql_type == SQLType.INT:
            return int(value)
        if self.sql_type == SQLType.REAL:
            return float(value)
        if self.sql_type == SQLType.BOOL:
            return bool(value)
        return value

    def to_list(self) -> list[Any]:
        """Materialize as a list of Python scalars with None for NULLs."""
        return list(self)

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

    def non_null(self) -> np.ndarray:
        """Return only the non-NULL values."""
        return self.values[~self.nulls]

    @property
    def null_count(self) -> int:
        return int(self.nulls.sum())

    # ------------------------------------------------------------ combinators

    def take(self, indices: np.ndarray) -> "Column":
        return Column(self.sql_type, self.values[indices], self.nulls[indices])

    def concat(self, other: "Column") -> "Column":
        if other.sql_type != self.sql_type:
            raise TypeMismatchError(
                f"cannot concatenate {self.sql_type.value} with {other.sql_type.value}"
            )
        return Column(
            self.sql_type,
            np.concatenate([self.values, other.values]),
            np.concatenate([self.nulls, other.nulls]),
        )

    def cast(self, target: SQLType) -> "Column":
        """Cast to another SQL type; NULLs propagate."""
        if target == self.sql_type:
            return Column(self.sql_type, self.values.copy(), self.nulls.copy())
        return Column.from_values(target, [None if n else _cast_scalar(v, self.sql_type, target)
                                           for v, n in zip(self.values, self.nulls)])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Column({self.sql_type.value}, n={len(self)}, nulls={self.null_count})"


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
