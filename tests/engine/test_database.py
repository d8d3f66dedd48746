"""Database catalog and statement entry points."""

import pytest

from repro.engine.database import Database, table_from_arrays
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import CatalogError, ExecutionError, TypeMismatchError

import numpy as np

ONE_INT = Schema([("a", SQLType.INT)])


@pytest.fixture()
def db():
    return Database()


class TestDDL:
    """A node registers and drops its tables directly; no statement does."""

    def test_create_and_drop(self, db):
        db.register_table("t", Table.from_rows(ONE_INT, []))
        assert db.has_table("t")
        db.drop_table("t")
        assert not db.has_table("t")

    def test_create_duplicate_rejected(self, db):
        db.register_table("t", Table.from_rows(ONE_INT, []))
        with pytest.raises(CatalogError):
            db.register_table("t", Table.from_rows(ONE_INT, []))

    def test_drop_missing(self, db):
        with pytest.raises(CatalogError):
            db.drop_table("nope")
        db.drop_table("nope", if_exists=True)  # no error

    def test_table_names(self, db):
        db.register_table("b", Table.from_rows(ONE_INT, []))
        db.register_table("a", Table.from_rows(ONE_INT, []))
        assert db.table_names() == ["a", "b"]


class TestDML:
    """Rows enter a table as a node loads it (``Table.from_rows``)."""

    def test_insert_and_query(self, db):
        schema = Schema([("a", SQLType.INT), ("b", SQLType.VARCHAR)])
        db.register_table("t", Table.from_rows(schema, [(1, "x"), (2, None)]))
        assert db.query("SELECT * FROM t").to_rows() == [(1, "x"), (2, None)]

    def test_insert_wrong_arity(self):
        with pytest.raises(TypeMismatchError):
            Table.from_rows(Schema([("a", SQLType.INT), ("b", SQLType.INT)]), [(1,)])


class TestDirectAPI:
    def test_register_and_get(self, db):
        table = Table.from_rows(Schema([("v", SQLType.INT)]), [(1,)])
        db.register_table("direct", table)
        assert db.get_table("direct").num_rows == 1

    def test_register_replace_flag(self, db):
        table = Table.from_rows(Schema([("v", SQLType.INT)]), [(1,)])
        db.register_table("direct", table)
        with pytest.raises(CatalogError):
            db.register_table("direct", table)
        db.register_table("direct", table, replace=True)

    def test_scalar_shape_checked(self, db):
        db.register_table("t", Table.from_rows(ONE_INT, [(1,), (2,)]))
        with pytest.raises(ExecutionError):
            db.scalar("SELECT a FROM t")

    def test_query_requires_rows(self, db):
        with pytest.raises(ExecutionError):
            db.query("CREATE FUNCTION f() RETURNS TABLE(v INT) LANGUAGE PYTHON { return 1 }")

    def test_table_from_arrays_infers_types(self):
        table = table_from_arrays(
            ["i", "f", "s"],
            [np.array([1, 2]), np.array([0.5, 1.5]), np.array(["a", "b"], dtype=object)],
        )
        assert [spec.sql_type for spec in table.schema] == [
            SQLType.INT, SQLType.REAL, SQLType.VARCHAR,
        ]
