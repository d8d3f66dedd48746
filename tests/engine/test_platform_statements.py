"""The statement shapes the platform issues, pinned.

The engine parses only the statements the platform sends it (the full list
is in docs/ARCHITECTURE.md).  This test records every statement a worker or
the master executes while every demo algorithm runs under plain and Shamir
aggregation on the golden-plan federation, plus the dashboard request and
one filtered request, and reduces each to its shape.  A flow that starts
issuing a new shape fails here, so the change shows up as a test diff.

No other shape is kept: tables enter and leave the catalog through
``Database.register_table`` / ``drop_table``, and a local step aggregates
its view in its body.  The last test pins the deleted shapes.
"""

from __future__ import annotations

import pytest

from repro.api.demo import DEMO_REQUESTS, demo_request
from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentStatus
from repro.engine import expressions as ast
from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import ExecutionError, ParseError
from repro.federation.controller import FederationConfig, create_federation

from tests.core.test_golden_digests import DASHBOARD
from tests.core.test_golden_plans import DATASETS, golden_worker_data

import repro.algorithms  # noqa: F401

PLATFORM_SHAPES = {
    "SELECT * FROM t",
    "SELECT cols FROM t WHERE …",
    "SELECT * FROM f(?)",
    "CREATE OR REPLACE FUNCTION … LANGUAGE PYTHON",
}


def shape(statement: ast.Statement) -> str:
    """A statement with its names and values abstracted away."""
    if isinstance(statement, ast.Select):
        return _select_shape(statement)
    verb = "CREATE OR REPLACE" if statement.or_replace else "CREATE"
    return f"{verb} FUNCTION … LANGUAGE PYTHON"


def _select_shape(select: ast.Select) -> str:
    items = "cols" if select.items else "*"
    source = "t"
    if isinstance(select.source, ast.UDFCall):
        plan_only = select.source.literal_args == (ast.Parameter(),)
        source = "f(?)" if plan_only else "f(…)"
    where = " WHERE …" if select.where is not None else ""
    return f"SELECT {items} FROM {source}{where}"


@pytest.fixture
def recorded(monkeypatch) -> set[str]:
    shapes: set[str] = set()
    execute_statement = Database.execute_statement

    def recording(self, statement, params=()):
        shapes.add(shape(statement))
        return execute_statement(self, statement, params)

    monkeypatch.setattr(Database, "execute_statement", recording)
    return shapes


def _run(algorithm: str, demo: dict, aggregation: str, filter_sql: str | None = None) -> None:
    federation = create_federation(
        golden_worker_data(), FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=0)
    )
    engine = ExperimentEngine(federation, aggregation=aggregation)
    try:
        outcome = engine.run(
            ExperimentRequest(
                algorithm=algorithm,
                data_model="dementia",
                datasets=DATASETS,
                y=demo["y"],
                x=demo["x"],
                parameters=demo["parameters"],
                filter_sql=filter_sql,
            )
        )
    finally:
        engine.shutdown()
        federation.shutdown()
    assert outcome.status is ExperimentStatus.SUCCESS, outcome.error


def test_the_platform_issues_exactly_the_kept_shapes(recorded):
    for algorithm in sorted(DEMO_REQUESTS):
        for aggregation in ("plain", "smpc"):
            _run(algorithm, demo_request(algorithm), aggregation)
    _run("descriptive_stats", DASHBOARD, "smpc")
    _run(
        "ttest_onesample",
        demo_request("ttest_onesample"),
        "plain",
        filter_sql="agevalue BETWEEN 60 AND 90 AND NOT (gender = 'F' OR p_tau IS NULL)",
    )
    assert recorded == PLATFORM_SHAPES


@pytest.mark.parametrize("sql, error", [
    ("CREATE TABLE t (a INT)", ParseError),
    ("INSERT INTO t VALUES (1)", ParseError),
    ("DROP TABLE t", ParseError),
    ("DROP FUNCTION IF EXISTS f", ParseError),
    ("SELECT COUNT(*) FROM t", ParseError),
    ("SELECT COUNT(a) FROM t", ExecutionError),
])
def test_a_deleted_shape_fails(sql, error):
    """Table DDL, rows written by SQL and aggregates fail, and the catalog
    is untouched: an aggregate's name is an unknown function, every other
    shape does not parse."""
    database = Database()
    database.register_table("t", Table.from_rows(Schema([("a", SQLType.INT)]), [(1,)]))
    match = "unknown function: COUNT" if error is ExecutionError else None
    with pytest.raises(error, match=match):
        database.execute(sql)
    assert database.table_names() == ["t"] and database.get_table("t").to_rows() == [(1,)]
