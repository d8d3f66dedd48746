"""Remote and merge tables — the non-secure aggregation path.

The paper: "A first, non-secure transfer, employs remote and merge tables (a
MonetDB's feature) to ship local results back to the Master node and perform
the aggregation there.  (Note that the remote and merge tables are not
materialized.)"

A :class:`RemoteTable` holds a location string (``node_id/table_name``) and a
resolver that fetches the remote table *lazily at query time*; a
:class:`MergeTable` is a virtual UNION ALL over its parts.  Neither stores
rows.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.table import Schema, Table, concat_tables
from repro.errors import CatalogError, NodeUnavailableError

#: Resolves "node_id/table_name" to the current remote table contents.
RemoteResolver = Callable[[str], Table]


class RemoteTable:
    """A non-materialized pointer to a table on another node."""

    def __init__(self, name: str, schema: Schema, location: str, resolver: RemoteResolver) -> None:
        self.name = name
        self.schema = schema
        self.location = location
        self._resolver = resolver

    def materialize(self) -> Table:
        table = self._resolver(self.location)
        if [s.sql_type for s in table.schema] != [s.sql_type for s in self.schema]:
            raise CatalogError(
                f"remote table {self.name!r}: remote schema does not match declaration"
            )
        return table.rename(self.schema.names)


class MergeTable:
    """A non-materialized UNION ALL over part tables (local or remote)."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._parts: list[str] = []

    def add_part(self, table_name: str) -> None:
        if table_name in self._parts:
            raise CatalogError(f"table {table_name!r} is already part of {self.name!r}")
        self._parts.append(table_name)

    def materialize_with(self, lookup: Callable[[str], Table]) -> Table:
        if not self._parts:
            return Table.empty(self.schema)
        tables = []
        for part in self._parts:
            part_table = lookup(part)
            tables.append(part_table.rename(self.schema.names))
        return concat_tables(tables)


def unavailable_resolver(location: str) -> Table:
    """Default resolver: every remote access fails until one is installed."""
    raise NodeUnavailableError(f"no remote resolver installed; cannot reach {location!r}")
