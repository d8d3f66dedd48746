"""The Database: catalog plus statement execution.

One :class:`Database` instance plays the role MonetDB plays on each MIP node.
It owns base tables and Python UDF definitions, and executes parsed
statements.
"""

from __future__ import annotations

import dataclasses
import threading
from functools import lru_cache
from typing import Any, Optional, Sequence

import numpy as np

from repro.engine import expressions as ast
from repro.engine.column import Column
from repro.engine.executor import execute_select
from repro.engine.parser import parse
from repro.engine.table import ColumnSpec, Schema, Table
from repro.engine.types import SQLType
from repro.engine.udf import UDFDefinition, run_udf
from repro.errors import CatalogError, ExecutionError

class Database:
    """An in-memory analytics database with a SQL subset.

    Thread-safe at statement granularity: the federation runtime may touch a
    worker's database from the transport thread while a UDF loopback query is
    in flight, so the lock is reentrant.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._functions: dict[str, UDFDefinition] = {}
        self._lock = threading.RLock()

    # ----------------------------------------------------------------- admin

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
        """Register a prebuilt table: every table a node keeps enters the
        catalog here (no statement writes one)."""
        with self._lock:
            if name in self._tables and not replace:
                raise CatalogError(f"table {name!r} already exists")
            self._tables[name] = table

    def get_table(self, name: str) -> Table:
        """Fetch a table by name."""
        with self._lock:
            table = self._tables.get(name)
        if table is None:
            raise CatalogError(f"no such table: {name!r}")
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._lock:
            if name not in self._tables:
                if if_exists:
                    return
                raise CatalogError(f"no such table: {name!r}")
            del self._tables[name]

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

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Optional[Table]:
        """Parse and execute one SQL statement.

        ``params`` bind, in order, to the statement's ``?`` table-function
        arguments.  A statement executed with parameters is prepared: its
        text is parsed once per process (:func:`_prepared`) and every
        execution binds its own values to that parse.

        A SELECT returns a :class:`Table`; CREATE FUNCTION returns None.
        """
        statement = _prepared(sql) if params else parse(sql)
        return self.execute_statement(statement, params)

    def execute_statement(
        self, statement: ast.Statement, params: Sequence[Any] = ()
    ) -> Optional[Table]:
        statement = _bound(statement, params)
        with self._lock:
            if isinstance(statement, ast.Select):
                return execute_select(statement, self)
            if isinstance(statement, ast.CreateFunction):
                definition = UDFDefinition(
                    statement.name, statement.parameters, statement.returns, statement.body
                )
                self.register_function(definition, replace=statement.or_replace)
                return None
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
        if result.num_rows != 1 or len(result.schema) != 1:
            raise ExecutionError(
                f"expected 1x1 result, got {result.num_rows}x{len(result.schema)}"
            )
        return result.column_at(0)[0]

    # ------------------------------------------------------- source resolving

    def resolve_source(self, source: ast.TableSource) -> Table:
        """Resolve a FROM-clause source into a concrete Table."""
        if isinstance(source, ast.NamedTable):
            return self.get_table(source.name)
        if isinstance(source, ast.UDFCall):
            return run_udf(self.get_function(source.name), self, list(source.literal_args))
        raise ExecutionError(f"unknown table source {type(source).__name__}")


@lru_cache(maxsize=256)
def _prepared(sql: str) -> ast.Statement:
    """The parse of a prepared statement's text, kept for its next execution
    (statements are immutable; a bound copy carries each execution's values)."""
    return parse(sql)


def _bound(statement: ast.Statement, params: Sequence[Any]) -> ast.Statement:
    """``statement`` with its ``?`` arguments (its table function's every
    argument) bound to ``params``, in order; the counts must match."""
    call = statement.source if isinstance(statement, ast.Select) else None
    slots = call.literal_args if isinstance(call, ast.UDFCall) else ()
    if len(slots) != len(params):
        raise ExecutionError(
            f"statement has {len(slots)} parameter(s), {len(params)} value(s) given"
        )
    if not params:
        return statement
    return dataclasses.replace(statement, source=ast.UDFCall(call.name, tuple(params)))


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
