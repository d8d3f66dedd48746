"""In-memory columnar SQL engine (the MonetDB substitute).

The paper runs every local computation step inside MonetDB to benefit from
vectorized, in-database analytics.  This package provides an engine with the
same interface surface used by MIP:

- columnar storage over numpy arrays with explicit NULL masks,
- the SQL statements the platform issues and no others: ``SELECT`` with a
  full ``WHERE`` expression grammar, a table-function call and
  ``CREATE FUNCTION``; tables enter the catalog through
  ``Database.register_table``,
- Python table UDFs (``CREATE FUNCTION ... LANGUAGE PYTHON``) executed
  vectorized over column arrays, with SQL *loopback* queries.
"""

from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType

__all__ = ["Column", "Database", "Schema", "SQLType", "Table"]
