"""UDF-to-SQL generation and execution through the engine."""

import json
import math

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.types import SQLType
from repro.errors import UDFError
from repro.udfgen.decorators import get_spec, udf
from repro.udfgen.generator import (
    TableArg,
    generate_udf_application,
    run_udf_application,
)
from repro.udfgen.iotypes import (
    literal,
    merge_transfer,
    relation,
    secure_transfer,
    state,
    tensor,
    transfer,
)
from repro.udfgen.runtime import deserialize_state, deserialize_transfer


@udf(data=relation(), factor=literal(), return_type=[state(), transfer()])
def fit_step(data, factor):
    total = data.to_matrix().sum()
    return {"total": total, "factor": factor}, {"scaled": float(total * factor)}


@udf(previous=state(), return_type=[transfer()])
def continue_step(previous):
    return {"echo": float(previous["total"])}


@udf(transfers=merge_transfer(), return_type=[transfer()])
def merge_step(transfers):
    return {"sum": sum(t["scaled"] for t in transfers)}


@udf(data=relation(), return_type=[secure_transfer()])
def secure_step(data):
    return {"s": {"data": float(data.to_matrix().sum()), "operation": "sum"}}


@udf(data=relation(), return_type=[tensor(2)])
def tensor_step(data):
    return data.to_matrix() * 2


@udf(data=relation(), return_type=[relation([("v", SQLType.REAL)])])
def relation_step(data):
    return {"v": data.to_matrix().sum(axis=1)}


@udf(value=literal(), return_type=[transfer()])
def echo_literal(value):
    return {"value": value}


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE numbers (a REAL, b REAL)")
    database.execute("INSERT INTO numbers VALUES (1.0, 2.0), (3.0, 4.0)")
    return database


class TestTableArg:
    def test_bare_name(self):
        assert TableArg.of("numbers").query == "SELECT * FROM numbers"

    def test_full_query_passthrough(self):
        q = "SELECT a FROM numbers WHERE a > 1"
        assert TableArg.of(q).query == q


class TestGeneration:
    def test_statements_shape(self):
        app = generate_udf_application(
            get_spec(fit_step), "job1", {"data": "numbers", "factor": 2}
        )
        assert app.definition_sql.startswith("CREATE OR REPLACE FUNCTION")
        assert len(app.create_output_sql) == 2
        assert app.execute_sql.startswith(f"INSERT INTO {app.output_tables[0]}")

    def test_missing_argument(self):
        with pytest.raises(UDFError, match="missing"):
            generate_udf_application(get_spec(fit_step), "job1", {"data": "numbers"})

    def test_unknown_argument(self):
        with pytest.raises(UDFError, match="unknown"):
            generate_udf_application(
                get_spec(fit_step), "job1",
                {"data": "numbers", "factor": 2, "bogus": 1},
            )


class TestLiterals:
    def test_non_finite_floats_round_trip_through_a_step(self, db):
        nan, inf = float("nan"), float("inf")
        value = {"beta": [nan, inf, -inf, 1.5], "nested": {"levels": [[-inf], {"x": nan}]}}
        app = generate_udf_application(get_spec(echo_literal), "nf1", {"value": value})
        (out,) = run_udf_application(db, app)
        echoed = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))["value"]
        assert math.isnan(echoed["beta"][0])
        assert echoed["beta"][1:] == [inf, -inf, 1.5]
        assert echoed["nested"]["levels"][0] == [-inf]
        assert math.isnan(echoed["nested"]["levels"][1]["x"])

    def test_finite_literals_travel_as_their_repr(self, db):
        value = {"beta": [0.1, -2.5e-300, 1e300], "level": "it's", "k": (3, None)}
        app = generate_udf_application(get_spec(echo_literal), "f1", {"value": value})
        assert repr(value).replace("'", "''") in app.execute_sql
        (out,) = run_udf_application(db, app)
        echoed = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))["value"]
        assert echoed == {"beta": [0.1, -2.5e-300, 1e300], "level": "it's", "k": [3, None]}


class TestExecution:
    def test_state_and_transfer_outputs(self, db):
        app = generate_udf_application(
            get_spec(fit_step), "job1", {"data": "numbers", "factor": 3}
        )
        tables = run_udf_application(db, app)
        restored_state = deserialize_state(db.scalar(f"SELECT * FROM {tables[0]}"))
        assert restored_state["total"] == 10.0
        restored_transfer = deserialize_transfer(db.scalar(f"SELECT * FROM {tables[1]}"))
        assert restored_transfer == {"scaled": 30.0}

    def test_state_chains_between_steps(self, db):
        first = generate_udf_application(
            get_spec(fit_step), "j1", {"data": "numbers", "factor": 1}
        )
        state_table, _ = run_udf_application(db, first)
        second = generate_udf_application(
            get_spec(continue_step), "j2", {"previous": state_table}
        )
        (out,) = run_udf_application(db, second)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}")) == {"echo": 10.0}

    def test_merge_transfer_input(self, db):
        tables = []
        for index, factor in enumerate((1, 2)):
            app = generate_udf_application(
                get_spec(fit_step), f"m{index}", {"data": "numbers", "factor": factor}
            )
            tables.append(run_udf_application(db, app)[1])
        merged = generate_udf_application(get_spec(merge_step), "mm", {"transfers": tables})
        (out,) = run_udf_application(db, merged)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}")) == {"sum": 30.0}

    def test_secure_transfer_output_validated(self, db):
        app = generate_udf_application(get_spec(secure_step), "s1", {"data": "numbers"})
        (out,) = run_udf_application(db, app)
        payload = json.loads(db.scalar(f"SELECT * FROM {out}"))
        assert payload == {"s": {"data": 10.0, "operation": "sum"}}

    def test_tensor_output(self, db):
        app = generate_udf_application(get_spec(tensor_step), "t1", {"data": "numbers"})
        (out,) = run_udf_application(db, app)
        result = db.query(f"SELECT * FROM {out} ORDER BY dim0, dim1").to_rows()
        assert result == [(0, 0, 2.0), (0, 1, 4.0), (1, 0, 6.0), (1, 1, 8.0)]

    def test_relation_output(self, db):
        app = generate_udf_application(get_spec(relation_step), "r1", {"data": "numbers"})
        (out,) = run_udf_application(db, app)
        assert db.query(f"SELECT * FROM {out}").to_rows() == [(3.0,), (7.0,)]

    def test_view_query_argument(self, db):
        app = generate_udf_application(
            get_spec(secure_step), "v1",
            {"data": "SELECT a FROM numbers WHERE a > 1"},
        )
        (out,) = run_udf_application(db, app)
        payload = json.loads(db.scalar(f"SELECT * FROM {out}"))
        assert payload["s"]["data"] == 3.0

    def test_stable_function_unique_outputs_per_job(self, db):
        # Plan-cached generation: one stable function per UDF shape, but the
        # output tables (and thus the results) stay unique per job.
        app1 = generate_udf_application(get_spec(secure_step), "ja", {"data": "numbers"})
        app2 = generate_udf_application(get_spec(secure_step), "jb", {"data": "numbers"})
        assert app1.function_name == app2.function_name
        assert app1.definition_sql == app2.definition_sql
        assert app1.output_tables != app2.output_tables
        run_udf_application(db, app1)
        run_udf_application(db, app2)
