"""Python table UDFs inside the engine, including loopback queries."""

import pytest

from repro.engine import database as database_module
from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import CatalogError, ExecutionError, UDFError


@pytest.fixture()
def db():
    database = Database()
    schema = Schema([("a", SQLType.INT), ("b", SQLType.REAL)])
    database.register_table("t", Table.from_rows(schema, [(1, 10.0), (2, 20.0), (3, 30.0)]))
    return database


class TestBasicUDF:
    def test_vectorized_columns(self, db):
        db.execute(
            "CREATE FUNCTION double_it() RETURNS TABLE(v INT) LANGUAGE PYTHON {\n"
            "    a = _conn.execute('SELECT a FROM t')['a']\n"
            "    return {'v': a * 2}\n"
            "}"
        )
        rows = db.query("SELECT * FROM double_it()").to_rows()
        assert rows == [(2,), (4,), (6,)]

    def test_multiple_input_columns(self, db):
        db.execute(
            "CREATE FUNCTION combine() RETURNS TABLE(v REAL) LANGUAGE PYTHON {\n"
            "    t = _conn.execute('SELECT a, b FROM t')\n"
            "    return {'v': t['a'] + t['b']}\n"
            "}"
        )
        rows = db.query("SELECT * FROM combine()").to_rows()
        assert rows == [(11.0,), (22.0,), (33.0,)]

    def test_scalar_literal_arguments(self, db):
        db.execute(
            "CREATE FUNCTION scale(factor INT) RETURNS TABLE(v INT) LANGUAGE PYTHON {\n"
            "    return {'v': _conn.execute('SELECT a FROM t')['a'] * factor}\n"
            "}"
        )
        rows = db.execute("SELECT * FROM scale(?)", (10,)).to_rows()
        assert rows == [(10,), (20,), (30,)]

    def test_numpy_available(self, db):
        db.execute(
            "CREATE FUNCTION total() RETURNS TABLE(s INT) LANGUAGE PYTHON {\n"
            "    return {'s': np.array([_conn.execute('SELECT a FROM t')['a'].sum()])}\n"
            "}"
        )
        assert db.query("SELECT * FROM total()").to_rows() == [(6,)]

    def test_or_replace(self, db):
        db.execute(
            "CREATE FUNCTION f(k INT) RETURNS TABLE(v INT) LANGUAGE PYTHON { return {'v': k} }"
        )
        with pytest.raises(CatalogError):
            db.execute(
                "CREATE FUNCTION f(k INT) RETURNS TABLE(v INT) "
                "LANGUAGE PYTHON { return {'v': k} }"
            )
        db.execute(
            "CREATE OR REPLACE FUNCTION f(k INT) RETURNS TABLE(v INT) "
            "LANGUAGE PYTHON { return {'v': k + 1} }"
        )
        assert db.execute("SELECT * FROM f(?)", (1,)).to_rows() == [(2,)]

    def test_more_literals_than_parameters(self, db):
        db.execute(
            "CREATE FUNCTION f(k INT) RETURNS TABLE(v INT) LANGUAGE PYTHON { return {'v': k} }"
        )
        with pytest.raises(UDFError, match="2 literal arguments for 1 parameters"):
            db.execute("SELECT * FROM f(?, ?)", (1, 2))


class TestParameters:
    """``?`` table-function arguments, bound by ``Database.execute``."""

    @pytest.fixture()
    def keys(self, db):
        db.execute(
            "CREATE FUNCTION keys(plan VARCHAR) RETURNS TABLE(k VARCHAR) LANGUAGE PYTHON {\n"
            "    return {'k': sorted(plan)}\n"
            "}"
        )
        return db

    def test_a_parameter_binds_a_python_value(self, keys):
        result = keys.execute("SELECT * FROM keys(?)", ({"b": [1.5], "a": None},))
        assert result.to_rows() == [("a",), ("b",)]

    def test_a_prepared_text_is_parsed_once(self, keys, monkeypatch):
        parses = []
        real = database_module.parse

        def parse(sql):
            parses.append(sql)
            return real(sql)

        monkeypatch.setattr(database_module, "parse", parse)
        database_module._prepared.cache_clear()
        for plan in ({"x": 1}, {"y": 2}, {"z": 3}):
            assert keys.execute("SELECT * FROM keys(?)", (plan,)).to_rows() == [(next(iter(plan)),)]
        assert parses == ["SELECT * FROM keys(?)"]

    @pytest.mark.parametrize("sql, params", [
        ("SELECT * FROM keys(?)", ()),
        ("SELECT * FROM keys(?)", ({"a": 1}, {"b": 2})),
        ("SELECT * FROM keys()", ({"a": 1},)),
        ("SELECT * FROM t", ({"a": 1},)),
    ], ids=["none_given", "one_too_many", "no_argument", "no_function"])
    def test_the_parameter_count_must_match(self, keys, sql, params):
        with pytest.raises(ExecutionError, match="parameter"):
            keys.execute(sql, params)


class TestLoopback:
    def test_loopback_select(self, db):
        db.execute(
            "CREATE FUNCTION agg() RETURNS TABLE(s REAL) LANGUAGE PYTHON {\n"
            "    b = _conn.execute(\"SELECT b FROM t WHERE a > 1\")['b']\n"
            "    return {'s': np.array([b.sum()])}\n"
            "}"
        )
        assert db.query("SELECT * FROM agg()").to_rows() == [(50.0,)]


class TestErrorHandling:
    def test_exception_wrapped(self, db):
        db.execute(
            "CREATE FUNCTION boom() RETURNS TABLE(v INT) "
            "LANGUAGE PYTHON { raise ValueError('nope') }"
        )
        with pytest.raises(UDFError, match="nope"):
            db.query("SELECT * FROM boom()")

    def test_missing_output_column(self, db):
        db.execute(
            "CREATE FUNCTION bad() RETURNS TABLE(v INT, w INT) "
            "LANGUAGE PYTHON { return {'v': np.array([1, 2])} }"
        )
        with pytest.raises(UDFError, match="missing column"):
            db.query("SELECT * FROM bad()")

    def test_ragged_output(self, db):
        db.execute(
            "CREATE FUNCTION ragged() RETURNS TABLE(v INT, w INT) "
            "LANGUAGE PYTHON { return {'v': np.array([1, 2]), 'w': np.array([1])} }"
        )
        with pytest.raises(UDFError, match="ragged"):
            db.query("SELECT * FROM ragged()")

    def test_unknown_function(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM nothere()")

    def test_scalar_result_broadcast(self, db):
        db.execute(
            "CREATE FUNCTION one() RETURNS TABLE(v INT) LANGUAGE PYTHON { return 7 }"
        )
        assert db.query("SELECT * FROM one()").to_rows() == [(7,)]
