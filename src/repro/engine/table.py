"""Tables and schemas for the columnar engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.column import Column
from repro.engine.types import SQLType
from repro.errors import CatalogError, TypeMismatchError


@dataclass(frozen=True)
class ColumnSpec:
    """Name and type of one column in a schema."""

    name: str
    sql_type: SQLType


class Schema:
    """An ordered set of named, typed columns."""

    def __init__(self, columns: Sequence[ColumnSpec] | Sequence[tuple[str, SQLType]]) -> None:
        specs: list[ColumnSpec] = []
        for item in columns:
            spec = item if isinstance(item, ColumnSpec) else ColumnSpec(item[0], item[1])
            specs.append(spec)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema: {names}")
        self._specs = tuple(specs)
        self._index = {spec.name: i for i, spec in enumerate(specs)}

    @property
    def columns(self) -> tuple[ColumnSpec, ...]:
        return self._specs

    @property
    def names(self) -> list[str]:
        return [spec.name for spec in self._specs]

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ColumnSpec]:
        return iter(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._specs == other._specs

    def type_of(self, name: str) -> SQLType:
        try:
            return self._specs[self._index[name]].sql_type
        except KeyError:
            raise CatalogError(f"no such column: {name!r}") from None

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"no such column: {name!r}") from None


class Table:
    """An immutable-by-convention columnar table.

    A table is never changed in place: a node replaces a catalog entry
    (:meth:`~repro.engine.database.Database.register_table`), and query
    operators always produce new tables.
    """

    def __init__(self, schema: Schema, columns: Sequence[Column]) -> None:
        if len(columns) != len(schema):
            raise CatalogError("column count does not match schema")
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise CatalogError(f"ragged columns: lengths {sorted(lengths)}")
        for spec, col in zip(schema, columns):
            if col.sql_type != spec.sql_type:
                raise TypeMismatchError(
                    f"column {spec.name!r}: expected {spec.sql_type.value}, got {col.sql_type.value}"
                )
        self.schema = schema
        self._columns = list(columns)
        #: What readers derive from the columns (the UDF boundary keeps a
        #: table's read-only relation here), so it lives as long as the table.
        #: Columns may be shared with other tables; this memo never is.  A
        #: catalog table's memo therefore outlives an experiment: only
        #: per-experiment tables (the worker's views) should be bound.
        self.memo: dict[Any, Any] = {}

    # ------------------------------------------------------------------ build

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]]) -> "Table":
        materialized = [list(row) for row in rows]
        for row in materialized:
            if len(row) != len(schema):
                raise TypeMismatchError(
                    f"row has {len(row)} values, schema has {len(schema)} columns"
                )
        columns = [
            Column.from_values(spec.sql_type, [row[i] for row in materialized])
            for i, spec in enumerate(schema)
        ]
        return cls(schema, columns)

    # -------------------------------------------------------------- accessors

    @property
    def num_rows(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def column(self, name: str) -> Column:
        return self._columns[self.schema.index_of(name)]

    def column_at(self, index: int) -> Column:
        return self._columns[index]

    @property
    def columns(self) -> list[Column]:
        return list(self._columns)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self.num_rows):
            yield tuple(col[i] for col in self._columns)

    def to_rows(self) -> list[tuple[Any, ...]]:
        return list(self.rows())

    def to_dict(self) -> dict[str, list[Any]]:
        return {spec.name: col.to_list() for spec, col in zip(self.schema, self._columns)}

    # ------------------------------------------------------------ combinators

    def take(self, indices: np.ndarray) -> "Table":
        return Table(self.schema, [col.take(indices) for col in self._columns])

    def select(self, names: Sequence[str]) -> "Table":
        specs = [ColumnSpec(name, self.schema.type_of(name)) for name in names]
        cols = [self.column(name) for name in names]
        return Table(Schema(specs), cols)

    def rename(self, names: Sequence[str]) -> "Table":
        if len(names) != len(self.schema):
            raise CatalogError("rename requires one name per column")
        specs = [ColumnSpec(name, spec.sql_type) for name, spec in zip(names, self.schema)]
        return Table(Schema(specs), self._columns)

    def concat(self, other: "Table") -> "Table":
        if [s.sql_type for s in self.schema] != [s.sql_type for s in other.schema]:
            raise TypeMismatchError("cannot concatenate tables with different column types")
        cols = [a.concat(b) for a, b in zip(self._columns, other._columns)]
        return Table(self.schema, cols)
