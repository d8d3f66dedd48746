"""Serialization runtime used by generated UDF bodies."""

import weakref

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import UDFError
from repro.udfgen.runtime import (
    Relation,
    deserialize_transfer,
    serialize_transfer,
    validate_secure_transfer,
)


class TestRelation:
    def test_access(self):
        rel = Relation({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])})
        assert len(rel) == 2
        assert list(rel["a"]) == [1.0, 2.0]

    def test_ragged_rejected(self):
        with pytest.raises(UDFError):
            Relation({"a": np.array([1.0]), "b": np.array([1.0, 2.0])})

    def test_to_matrix_column_order(self):
        rel = Relation({"a": np.array([1.0]), "b": np.array([2.0])})
        assert rel.to_matrix(["b", "a"]).tolist() == [[2.0, 1.0]]

    def test_empty(self):
        assert len(Relation({})) == 0

    def test_a_catalog_table_keeps_its_relation_until_it_is_replaced(self):
        database = Database()
        schema = Schema([("x", SQLType.REAL)])
        database.register_table("t", Table.from_rows(schema, [(1.0,), (2.0,)]))
        first = Relation.of(database.query("SELECT * FROM t"))
        matrix = first.to_matrix(["x"])
        # Bound directly, the catalog table holds both until it is replaced.
        assert Relation.of(database.query("SELECT * FROM t")) is first
        assert first.to_matrix(["x"]) is matrix
        relation_ref, matrix_ref = weakref.ref(first), weakref.ref(matrix)
        del first, matrix
        database.register_table(
            "t", Table.from_rows(schema, [(1.0,), (2.0,), (3.0,)]), replace=True
        )
        assert relation_ref() is None and matrix_ref() is None
        assert Relation.of(database.query("SELECT * FROM t")).to_matrix(["x"]).tolist() == [
            [1.0], [2.0], [3.0],
        ]


class TestTransferSerialization:
    def test_numpy_becomes_lists(self):
        blob = serialize_transfer({"v": np.array([1.5, 2.5]), "n": np.int64(3)})
        restored = deserialize_transfer(blob)
        assert restored == {"v": [1.5, 2.5], "n": 3}

    def test_non_dict_rejected(self):
        with pytest.raises(UDFError):
            serialize_transfer([1, 2])

    def test_numpy_bool(self):
        assert deserialize_transfer(serialize_transfer({"f": np.bool_(True)})) == {"f": True}


class TestSecureTransferValidation:
    def test_valid(self):
        payload = {"s": {"data": [1, 2], "operation": "sum"}}
        assert validate_secure_transfer(payload) == payload

    def test_missing_operation(self):
        with pytest.raises(UDFError):
            validate_secure_transfer({"s": {"data": [1]}})

    def test_bad_operation(self):
        with pytest.raises(UDFError):
            validate_secure_transfer({"s": {"data": [1], "operation": "mean"}})

    def test_non_dict(self):
        with pytest.raises(UDFError):
            validate_secure_transfer("nope")

    def test_bound_accepted(self):
        payload = {"m": {"data": [1.0], "operation": "min", "bound": 2000}}
        assert validate_secure_transfer(payload) == payload
        assert validate_secure_transfer({"m": {"data": 1.0, "operation": "max", "bound": None}})

    @pytest.mark.parametrize("bound", [0, -1.0, float("nan"), float("inf"), True, "5", [5]])
    def test_bad_bound(self, bound):
        with pytest.raises(UDFError, match="bound must be a finite real > 0"):
            validate_secure_transfer({"m": {"data": [1.0], "operation": "min", "bound": bound}})
