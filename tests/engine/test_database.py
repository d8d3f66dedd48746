"""Database catalog and DDL/DML behaviour."""

import pytest

from repro.engine.database import Database, table_from_arrays
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import CatalogError, ExecutionError

import numpy as np


@pytest.fixture()
def db():
    return Database()


class TestDDL:
    def test_create_and_drop(self, db):
        db.execute("CREATE TABLE t (a INT)")
        assert db.has_table("t")
        db.execute("DROP TABLE t")
        assert not db.has_table("t")

    def test_create_duplicate_rejected(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INT)")

    def test_if_not_exists(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")  # no error

    def test_drop_missing(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nope")
        db.execute("DROP TABLE IF EXISTS nope")  # no error

    def test_table_names(self, db):
        db.execute("CREATE TABLE b (x INT)")
        db.execute("CREATE TABLE a (x INT)")
        assert db.table_names() == ["a", "b"]


class TestDML:
    def test_insert_and_query(self, db):
        db.execute("CREATE TABLE t (a INT, b VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
        assert db.query("SELECT * FROM t").to_rows() == [(1, "x"), (2, None)]

    def test_insert_wrong_arity(self, db):
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (1)")


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
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        with pytest.raises(ExecutionError):
            db.scalar("SELECT a FROM t")

    def test_query_requires_rows(self, db):
        with pytest.raises(ExecutionError):
            db.query("CREATE TABLE t (a INT)")

    def test_table_from_arrays_infers_types(self):
        table = table_from_arrays(
            ["i", "f", "s"],
            [np.array([1, 2]), np.array([0.5, 1.5]), np.array(["a", "b"], dtype=object)],
        )
        assert [spec.sql_type for spec in table.schema] == [
            SQLType.INT, SQLType.REAL, SQLType.VARCHAR,
        ]
