import pytest

from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType


@pytest.fixture()
def db():
    """A node's database holding ``numbers (a REAL, b REAL)``: two rows."""
    database = Database()
    schema = Schema([("a", SQLType.REAL), ("b", SQLType.REAL)])
    database.register_table("numbers", Table.from_rows(schema, [(1.0, 2.0), (3.0, 4.0)]))
    return database
