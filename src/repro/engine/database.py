"""The Database: catalog plus statement execution.

One :class:`Database` instance plays the role MonetDB plays on each MIP node.
It owns base tables, Python UDF definitions, remote tables, and merge tables,
and executes parsed statements.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

import numpy as np

from repro.engine import expressions as ast
from repro.engine.column import Column
from repro.engine.executor import execute_select, true_rows
from repro.engine.parser import parse
from repro.engine.remote import MergeTable, RemoteResolver, RemoteTable, unavailable_resolver
from repro.engine.table import ColumnSpec, Schema, Table
from repro.engine.types import SQLType
from repro.engine.udf import UDFDefinition, run_udf
from repro.errors import CatalogError, ExecutionError

_CatalogEntry = Table | RemoteTable | MergeTable


class Database:
    """An in-memory analytics database with a SQL subset.

    Thread-safe at statement granularity: the federation runtime may touch a
    worker's database from the transport thread while a UDF loopback query is
    in flight, so the lock is reentrant.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, _CatalogEntry] = {}
        self._functions: dict[str, UDFDefinition] = {}
        self._remote_resolver: RemoteResolver = unavailable_resolver
        self._lock = threading.RLock()
        #: Session-level Python object cache for stateful UDF execution
        #: (paper §2 roadmap: "stateful Python UDF execution").  Generated
        #: UDF bodies see it as ``_cache``: a state object written by one
        #: step is handed to the next step without a pickle round trip.
        self.session_cache: dict[str, Any] = {}

    # ----------------------------------------------------------------- admin

    def set_remote_resolver(self, resolver: RemoteResolver) -> None:
        """Install the callable that fetches remote tables at query time."""
        self._remote_resolver = resolver

    def table_names(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    def function_names(self) -> list[str]:
        with self._lock:
            return sorted(self._functions)

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def has_function(self, name: str) -> bool:
        with self._lock:
            return name in self._functions

    # ------------------------------------------------------------ direct API

    def register_table(self, name: str, table: Table, replace: bool = False) -> None:
        """Register a prebuilt table (ETL fast path, bypassing INSERT)."""
        with self._lock:
            if name in self._tables and not replace:
                raise CatalogError(f"table {name!r} already exists")
            self._tables[name] = table

    def get_table(self, name: str) -> Table:
        """Fetch a table by name, materializing remote/merge entries."""
        with self._lock:
            entry = self._tables.get(name)
        if entry is None:
            raise CatalogError(f"no such table: {name!r}")
        return self._materialize(entry)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._lock:
            if name not in self._tables:
                if if_exists:
                    return
                raise CatalogError(f"no such table: {name!r}")
            del self._tables[name]
            self.session_cache.pop(name, None)

    def register_function(self, definition: UDFDefinition, replace: bool = False) -> None:
        with self._lock:
            if definition.name in self._functions and not replace:
                raise CatalogError(f"function {definition.name!r} already exists")
            self._functions[definition.name] = definition

    def get_function(self, name: str) -> UDFDefinition:
        with self._lock:
            definition = self._functions.get(name)
        if definition is None:
            raise CatalogError(f"no such function: {name!r}")
        return definition

    # -------------------------------------------------------------- execution

    def execute(self, sql: str) -> Optional[Table]:
        """Parse and execute one SQL statement.

        SELECTs return a :class:`Table`; DDL/DML return None.
        """
        statement = parse(sql)
        return self.execute_statement(statement)

    def execute_statement(self, statement: ast.Statement) -> Optional[Table]:
        with self._lock:
            if isinstance(statement, ast.Select):
                return execute_select(statement, self)
            if isinstance(statement, ast.CreateTable):
                return self._create_table(statement)
            if isinstance(statement, ast.DropTable):
                self.drop_table(statement.name, statement.if_exists)
                return None
            if isinstance(statement, ast.InsertValues):
                return self._insert_values(statement)
            if isinstance(statement, ast.InsertSelect):
                return self._insert_select(statement)
            if isinstance(statement, ast.DeleteFrom):
                return self._delete(statement)
            if isinstance(statement, ast.CreateFunction):
                definition = UDFDefinition(
                    statement.name, statement.parameters, statement.returns, statement.body
                )
                self.register_function(definition, replace=statement.or_replace)
                return None
            if isinstance(statement, ast.DropFunction):
                if statement.name not in self._functions:
                    if statement.if_exists:
                        return None
                    raise CatalogError(f"no such function: {statement.name!r}")
                del self._functions[statement.name]
                return None
            if isinstance(statement, ast.CreateRemoteTable):
                return self._create_remote(statement)
            if isinstance(statement, ast.CreateMergeTable):
                schema = Schema([ColumnSpec(n, t) for n, t in statement.columns])
                self._register_entry(statement.name, MergeTable(statement.name, schema))
                return None
            if isinstance(statement, ast.AlterMergeAdd):
                return self._merge_add(statement)
        raise ExecutionError(f"unsupported statement type {type(statement).__name__}")

    def query(self, sql: str) -> Table:
        """Execute a statement that must produce rows."""
        result = self.execute(sql)
        if result is None:
            raise ExecutionError("statement did not produce a result set")
        return result

    def scalar(self, sql: str) -> Any:
        """Execute a query and return the single value of a 1x1 result."""
        result = self.query(sql)
        if result.num_rows != 1 or result.num_columns != 1:
            raise ExecutionError(
                f"expected 1x1 result, got {result.num_rows}x{result.num_columns}"
            )
        return result.column_at(0)[0]

    # ------------------------------------------------------- source resolving

    def resolve_source(self, source: ast.TableSource) -> Table:
        """Resolve a FROM-clause source into a concrete Table."""
        if isinstance(source, ast.NamedTable):
            return self.get_table(source.name)
        if isinstance(source, ast.SubquerySource):
            return execute_select(source.query, self)
        if isinstance(source, ast.UDFCall):
            definition = self.get_function(source.name)
            tables = [execute_select(q, self) for q in source.query_args]
            return run_udf(definition, self, tables, list(source.literal_args))
        if isinstance(source, ast.JoinSource):
            from repro.engine.executor import execute_join

            left = self._resolve_qualified(source.left)
            right = self._resolve_qualified(source.right)
            return execute_join(left, right, source.condition, source.kind)
        raise ExecutionError(f"unknown table source {type(source).__name__}")

    def _resolve_qualified(self, source: ast.TableSource) -> Table:
        """Resolve a join operand, qualifying its columns with its alias."""
        table = self.resolve_source(source)
        alias = None
        if isinstance(source, ast.NamedTable):
            alias = source.alias or source.name
        elif isinstance(source, ast.SubquerySource):
            alias = source.alias
        if alias is None:
            return table
        return table.rename([f"{alias}.{spec.name}" for spec in table.schema])

    def call_udf(self, name: str, table_args: Sequence[Table], literal_args: Sequence[Any] = ()) -> Table:
        """Invoke a registered UDF directly (bypassing SQL), for the runtime."""
        definition = self.get_function(name)
        return run_udf(definition, self, table_args, literal_args)

    # ----------------------------------------------------------------- private

    def _register_entry(self, name: str, entry: _CatalogEntry) -> None:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        self._tables[name] = entry

    def _materialize(self, entry: _CatalogEntry) -> Table:
        if isinstance(entry, Table):
            return entry
        if isinstance(entry, RemoteTable):
            return entry.materialize()
        return entry.materialize_with(self.get_table)

    def _create_table(self, statement: ast.CreateTable) -> None:
        if statement.name in self._tables:
            if statement.if_not_exists:
                return None
            raise CatalogError(f"table {statement.name!r} already exists")
        schema = Schema([ColumnSpec(n, t) for n, t in statement.columns])
        self._tables[statement.name] = Table.empty(schema)
        return None

    def _base_table(self, name: str) -> Table:
        entry = self._tables.get(name)
        if entry is None:
            raise CatalogError(f"no such table: {name!r}")
        if not isinstance(entry, Table):
            raise ExecutionError(f"{name!r} is not a base table")
        return entry

    def _insert_values(self, statement: ast.InsertValues) -> None:
        existing = self._base_table(statement.table)
        addition = Table.from_rows(existing.schema, statement.rows)
        self._tables[statement.table] = existing.concat(addition)
        return None

    def _insert_select(self, statement: ast.InsertSelect) -> None:
        existing = self._base_table(statement.table)
        addition = execute_select(statement.query, self)
        if len(addition.schema) != len(existing.schema):
            raise ExecutionError(
                f"INSERT SELECT: {len(addition.schema)} columns for "
                f"{len(existing.schema)}-column table"
            )
        coerced = Table(
            existing.schema,
            [col.cast(spec.sql_type) for col, spec in zip(addition.columns, existing.schema)],
        )
        self._tables[statement.table] = existing.concat(coerced)
        return None

    def _delete(self, statement: ast.DeleteFrom) -> None:
        existing = self._base_table(statement.table)
        if statement.where is None:
            self._tables[statement.table] = Table.empty(existing.schema)
            return None
        self._tables[statement.table] = existing.filter(~true_rows(statement.where, existing))
        return None

    def _create_remote(self, statement: ast.CreateRemoteTable) -> None:
        schema = Schema([ColumnSpec(n, t) for n, t in statement.columns])
        remote = RemoteTable(
            statement.name, schema, statement.location, lambda loc: self._remote_resolver(loc)
        )
        self._register_entry(statement.name, remote)
        return None

    def _merge_add(self, statement: ast.AlterMergeAdd) -> None:
        entry = self._tables.get(statement.merge_table)
        if entry is None:
            raise CatalogError(f"no such table: {statement.merge_table!r}")
        if not isinstance(entry, MergeTable):
            raise ExecutionError(f"{statement.merge_table!r} is not a merge table")
        if statement.part_table not in self._tables:
            raise CatalogError(f"no such table: {statement.part_table!r}")
        entry.add_part(statement.part_table)
        return None


def table_from_arrays(names: Sequence[str], arrays: Sequence[np.ndarray],
                      types: Sequence[SQLType] | None = None) -> Table:
    """Convenience: build a Table from parallel numpy arrays."""
    if types is None:
        types = []
        for array in arrays:
            if np.issubdtype(np.asarray(array).dtype, np.integer):
                types.append(SQLType.INT)
            elif np.issubdtype(np.asarray(array).dtype, np.floating):
                types.append(SQLType.REAL)
            elif np.asarray(array).dtype == np.bool_:
                types.append(SQLType.BOOL)
            else:
                types.append(SQLType.VARCHAR)
    specs = [ColumnSpec(name, t) for name, t in zip(names, types)]
    columns = [Column.from_numpy(t, np.asarray(a)) for t, a in zip(types, arrays)]
    return Table(Schema(specs), columns)
