"""UDF-to-SQL generation and execution through the engine."""

import json
import math

import numpy as np
import pytest

from repro.engine.database import Database
from repro.errors import UDFError
from repro.udfgen.decorators import get_spec, udf
from repro.udfgen.generator import (
    TableArg,
    UDFPlanCache,
    generate_udf_application,
    run_udf_application,
)
from repro.udfgen.iotypes import literal, relation, secure_transfer, transfer
from repro.udfgen.runtime import deserialize_transfer

#: The generating node's plan cache, as a master or worker holds one.
PLAN_CACHE = UDFPlanCache()


@udf(data=relation(), factor=literal(), return_type=[transfer()])
def fit_step(data, factor):
    total = data.to_matrix().sum()
    return {"total": float(total), "scaled": float(total * factor)}


@udf(previous=transfer(), return_type=[transfer()])
def continue_step(previous):
    return {"echo": float(previous["total"])}


@udf(data=relation(), return_type=[secure_transfer()])
def secure_step(data):
    return {"s": {"data": float(data.to_matrix().sum()), "operation": "sum"}}


@udf(value=literal(), return_type=[transfer()])
def echo_literal(value):
    return {"value": value}


@udf(value=literal(), return_type=[transfer()])
def mark_literal(value):
    value["marks"].append(len(value["marks"]))
    return {"marks": value["marks"]}


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
            get_spec(fit_step), "job1", {"data": "numbers", "factor": 2}, PLAN_CACHE
        )
        assert app.definition_sql.startswith("CREATE OR REPLACE FUNCTION")
        assert app.execute_sql == f"SELECT * FROM {app.function_name}(?)"
        assert app.plan == ({"data": "SELECT * FROM numbers", "factor": 2},)

    def test_missing_argument(self):
        with pytest.raises(UDFError, match="missing"):
            generate_udf_application(get_spec(fit_step), "job1", {"data": "numbers"}, PLAN_CACHE)

    def test_unknown_argument(self):
        with pytest.raises(UDFError, match="unknown"):
            generate_udf_application(
                get_spec(fit_step), "job1",
                {"data": "numbers", "factor": 2, "bogus": 1},
                PLAN_CACHE,
            )


class TestLiterals:
    def test_non_finite_floats_round_trip_through_a_step(self, db):
        nan, inf = float("nan"), float("inf")
        value = {"beta": [nan, inf, -inf, 1.5], "nested": {"levels": [[-inf], {"x": nan}]}}
        app = generate_udf_application(get_spec(echo_literal), "nf1", {"value": value}, PLAN_CACHE)
        (out,) = run_udf_application(db, app)
        echoed = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))["value"]
        assert math.isnan(echoed["beta"][0])
        assert echoed["beta"][1:] == [inf, -inf, 1.5]
        assert echoed["nested"]["levels"][0] == [-inf]
        assert math.isnan(echoed["nested"]["levels"][1]["x"])

    def test_literals_travel_in_the_plan_not_the_sql(self, db):
        value = {"beta": [0.1, -2.5e-300, 1e300], "level": "it's", "k": (3, None)}
        app = generate_udf_application(get_spec(echo_literal), "f1", {"value": value}, PLAN_CACHE)
        assert app.plan == ({"value": value},)
        assert app.execute_sql == f"SELECT * FROM {app.function_name}(?)"
        (out,) = run_udf_application(db, app)
        echoed = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))["value"]
        assert echoed == {"beta": [0.1, -2.5e-300, 1e300], "level": "it's", "k": [3, None]}

    def test_a_body_that_mutates_its_literal_leaves_the_plan_alone(self, db):
        value = {"marks": [], "nested": ({"levels": [1.5]},)}
        apps = [
            generate_udf_application(get_spec(mark_literal), job, {"value": value}, PLAN_CACHE)
            for job in ("m1", "m2")
        ]
        for app in apps:
            (out,) = run_udf_application(db, app)
            assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}")) == {"marks": [0]}
        assert value == {"marks": [], "nested": ({"levels": [1.5]},)}
        assert apps[0].plan == ({"value": value},)

    @pytest.mark.parametrize("value", [
        np.array([1.0, 2.0]),
        {"beta": [np.zeros(2)]},
        {"at": object()},
    ], ids=["ndarray", "nested_ndarray", "object"])
    def test_a_literal_that_is_not_plain_data_is_refused(self, db, value):
        app = generate_udf_application(get_spec(echo_literal), "r1", {"value": value}, PLAN_CACHE)
        with pytest.raises(UDFError, match="scalars and built-in containers"):
            run_udf_application(db, app)
        assert not db.has_table(app.output_tables[0])

    def test_numpy_scalars_pass_as_themselves(self, db):
        value = {"k": np.int64(3), "x": np.float64(0.25), "flag": np.True_}
        app = generate_udf_application(get_spec(echo_literal), "n1", {"value": value}, PLAN_CACHE)
        (out,) = run_udf_application(db, app)
        echoed = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))["value"]
        assert echoed == {"k": 3, "x": 0.25, "flag": True}


class TestExecution:
    def test_transfer_output(self, db):
        app = generate_udf_application(
            get_spec(fit_step), "job1", {"data": "numbers", "factor": 3}, PLAN_CACHE
        )
        (out,) = run_udf_application(db, app)
        restored = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))
        assert restored == {"total": 10.0, "scaled": 30.0}

    def test_transfer_chains_between_steps(self, db):
        first = generate_udf_application(
            get_spec(fit_step), "j1", {"data": "numbers", "factor": 1}, PLAN_CACHE
        )
        (transfer_table,) = run_udf_application(db, first)
        second = generate_udf_application(
            get_spec(continue_step), "j2", {"previous": transfer_table}, PLAN_CACHE
        )
        (out,) = run_udf_application(db, second)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}")) == {"echo": 10.0}

    def test_secure_transfer_output_validated(self, db):
        app = generate_udf_application(get_spec(secure_step), "s1", {"data": "numbers"}, PLAN_CACHE)
        (out,) = run_udf_application(db, app)
        payload = json.loads(db.scalar(f"SELECT * FROM {out}"))
        assert payload == {"s": {"data": 10.0, "operation": "sum"}}

    def test_view_query_argument(self, db):
        app = generate_udf_application(
            get_spec(secure_step), "v1",
            {"data": "SELECT a FROM numbers WHERE a > 1"},
            PLAN_CACHE,
        )
        (out,) = run_udf_application(db, app)
        payload = json.loads(db.scalar(f"SELECT * FROM {out}"))
        assert payload["s"]["data"] == 3.0

    def test_stable_function_unique_outputs_per_job(self, db):
        # Plan-cached generation: one stable function per UDF shape, but the
        # output tables (and thus the results) stay unique per job.
        app1 = generate_udf_application(
            get_spec(secure_step), "ja", {"data": "numbers"}, PLAN_CACHE
        )
        app2 = generate_udf_application(
            get_spec(secure_step), "jb", {"data": "numbers"}, PLAN_CACHE
        )
        assert app1.function_name == app2.function_name
        assert app1.definition_sql == app2.definition_sql
        assert app1.output_tables != app2.output_tables
        run_udf_application(db, app1)
        run_udf_application(db, app2)
