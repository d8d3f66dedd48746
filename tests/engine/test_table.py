"""Tables and schemas."""

import numpy as np
import pytest

from repro.engine.column import Column
from repro.engine.table import ColumnSpec, Schema, Table, concat_tables
from repro.engine.types import SQLType
from repro.errors import CatalogError, TypeMismatchError


@pytest.fixture()
def schema():
    return Schema([("a", SQLType.INT), ("b", SQLType.REAL), ("c", SQLType.VARCHAR)])


@pytest.fixture()
def table(schema):
    return Table.from_rows(schema, [(1, 1.5, "x"), (2, None, "y"), (3, 3.5, None)])


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema([("a", SQLType.INT), ("a", SQLType.REAL)])

    def test_type_of(self, schema):
        assert schema.type_of("b") == SQLType.REAL
        with pytest.raises(CatalogError):
            schema.type_of("missing")

    def test_index_of(self, schema):
        assert schema.index_of("c") == 2

    def test_contains(self, schema):
        assert "a" in schema
        assert "z" not in schema

    def test_equality(self, schema):
        other = Schema([("a", SQLType.INT), ("b", SQLType.REAL), ("c", SQLType.VARCHAR)])
        assert schema == other


class TestTable:
    def test_row_count(self, table):
        assert table.num_rows == 3
        assert table.num_columns == 3

    def test_ragged_rows_rejected(self, schema):
        with pytest.raises(TypeMismatchError):
            Table.from_rows(schema, [(1, 2.0)])

    def test_column_type_checked(self, schema):
        cols = [
            Column.from_values(SQLType.REAL, [1.0]),  # wrong: schema says INT
            Column.from_values(SQLType.REAL, [1.0]),
            Column.from_values(SQLType.VARCHAR, ["x"]),
        ]
        with pytest.raises(TypeMismatchError):
            Table(schema, cols)

    def test_ragged_columns_rejected(self, schema):
        cols = [
            Column.from_values(SQLType.INT, [1, 2]),
            Column.from_values(SQLType.REAL, [1.0]),
            Column.from_values(SQLType.VARCHAR, ["x"]),
        ]
        with pytest.raises(CatalogError):
            Table(schema, cols)

    def test_to_rows_roundtrip(self, table):
        assert table.to_rows() == [(1, 1.5, "x"), (2, None, "y"), (3, 3.5, None)]

    def test_to_dict(self, table):
        assert table.to_dict()["a"] == [1, 2, 3]

    def test_select_projects_and_reorders(self, table):
        projected = table.select(["c", "a"])
        assert projected.schema.names == ["c", "a"]
        assert projected.to_rows()[0] == ("x", 1)

    def test_rename(self, table):
        renamed = table.rename(["x", "y", "z"])
        assert renamed.schema.names == ["x", "y", "z"]
        with pytest.raises(CatalogError):
            table.rename(["only-two", "names"])

    def test_take(self, table):
        assert table.take(np.array([2])).to_rows() == [(3, 3.5, None)]

    def test_concat(self, table):
        combined = table.concat(table)
        assert combined.num_rows == 6

    def test_concat_incompatible(self, table):
        other = Table.from_rows(Schema([("a", SQLType.INT)]), [(1,)])
        with pytest.raises(TypeMismatchError):
            table.concat(other)

    def test_empty(self, schema):
        assert Table.empty(schema).num_rows == 0


class TestConcatTables:
    def test_many(self, table):
        assert concat_tables([table, table, table]).num_rows == 9

    def test_zero_rejected(self):
        with pytest.raises(CatalogError):
            concat_tables([])
