"""The statement shapes the platform issues, pinned.

The engine parses only the statements the platform sends it (the full list
is in docs/ARCHITECTURE.md).  This test records every statement a worker or
the master executes while every demo algorithm runs under plain and Shamir
aggregation on the golden-plan federation, plus the dashboard request and
one filtered request, and reduces each to its shape.  A flow that starts
issuing a new shape fails here, so the change shows up as a test diff.

The E7 bench issues the other kept shapes (``CREATE TABLE``, a SELECT of
bare aggregates and ``DROP FUNCTION IF EXISTS``); the perf-gate lane runs
it.  ``INSERT … VALUES`` stays for the tests that build tables with it.
"""

from __future__ import annotations

import pytest

from repro.api.demo import DEMO_REQUESTS, demo_request
from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentStatus
from repro.engine import expressions as ast
from repro.engine.database import Database
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
    if isinstance(statement, ast.InsertValues):
        return "INSERT INTO t VALUES (…)"
    if isinstance(statement, ast.CreateTable):
        return "CREATE TABLE IF NOT EXISTS" if statement.if_not_exists else "CREATE TABLE"
    if isinstance(statement, ast.CreateFunction):
        verb = "CREATE OR REPLACE" if statement.or_replace else "CREATE"
        return f"{verb} FUNCTION … LANGUAGE PYTHON"
    if isinstance(statement, (ast.DropFunction, ast.DropTable)):
        kind = "FUNCTION" if isinstance(statement, ast.DropFunction) else "TABLE"
        return f"DROP {kind}{' IF EXISTS' if statement.if_exists else ''}"
    return type(statement).__name__


def _select_shape(select: ast.Select) -> str:
    if not select.items:
        items = "*"
    elif all(isinstance(item.expression, ast.Aggregate) for item in select.items):
        items = "<bare aggregates>"
    else:
        items = "cols"
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
