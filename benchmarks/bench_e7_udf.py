"""E7 — §2 Worker node / UDFGenerator: in-engine vectorized execution.

"Executing the algorithm inside a data engine is a strategic choice to
leverage all the benefits of performant, in-database analytics, such as
zero-cost copy, vectorization, and data serialization."

Compares the engine's vectorized expression evaluation against a
row-at-a-time Python interpreter on the same filter + aggregate workload,
and measures the generated-UDF pipeline end to end.  Expected shape:
vectorized wins by an order of magnitude at large inputs.

A second table runs the data-view query (``core/context.py:view_query``:
project 2 of the hospital table's 24 columns, ``IN`` + two ``IS NOT NULL``)
and prices the scan per *referenced* cell: a hospital should pay for what a
visiting analysis reads, not for what it stores.

A third table runs an iterative flow the way a worker sees it — six local
steps of one experiment binding that same view — and counts the scans: the
first step pays for the view, the later ones read the rows it left resident.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data.cohorts import CohortSpec, generate_cohort
from repro.engine.database import Database
from repro.federation.messages import Message
from repro.federation.worker import Worker
from repro.udfgen import generate_udf_application, relation, run_udf_application, secure_transfer, udf
from repro.udfgen.decorators import get_spec

from benchmarks.conftest import write_report

SIZES = (1_000, 10_000, 100_000, 1_000_000)


def build_database(n_rows: int) -> Database:
    database = Database()
    rng = np.random.default_rng(1)
    database.execute("CREATE TABLE measurements (age REAL, volume REAL)")
    from repro.engine.database import table_from_arrays

    table = table_from_arrays(
        ["age", "volume"],
        [rng.uniform(40, 95, n_rows), rng.normal(3.0, 0.5, n_rows)],
    )
    database.register_table("measurements", table, replace=True)
    return database

QUERY = (
    "SELECT COUNT(*) AS n, AVG(volume) AS mean_volume, STDDEV(volume) AS sd "
    "FROM measurements WHERE age > 65 AND volume BETWEEN 2.0 AND 4.5"
)


#: The data-view shape: 3 of the 24 stored columns are referenced.
WIDE_QUERY = (
    "SELECT lefthippocampus, p_tau FROM data_dementia WHERE dataset IN ('edsd') "
    "AND lefthippocampus IS NOT NULL AND p_tau IS NOT NULL"
)
WIDE_REFERENCED = 3


#: Local steps the iterative flow runs over its one data view.
VIEW_STEPS = 6


def build_wide_database(n_rows: int) -> Database:
    database = Database()
    database.register_table("data_dementia", generate_cohort(CohortSpec("edsd", n_rows, seed=1)))
    return database


def run_iterative_flow(database: Database) -> tuple[int, list[float]]:
    """VIEW_STEPS local steps of one experiment over one data view, on one
    worker: (scans of the hospital table, seconds per step)."""
    worker = Worker("hospital")
    worker.load_data_model("dementia", database.get_table("data_dementia"))
    scans = []
    engine_execute = worker.database.execute

    def execute(sql):
        if sql.startswith("SELECT") and "FROM data_dementia" in sql:
            scans.append(sql)
        return engine_execute(sql)

    worker.database.execute = execute
    seconds = []
    for step in range(1, VIEW_STEPS + 1):
        message = Message("master", worker.node_id, "run_udf", {
            "job_id": f"bench_s{step}",
            "udf_name": get_spec(bench_sums_local).name,
            "arguments": {
                "data": {"kind": "view", "experiment": "bench", "query": WIDE_QUERY}
            },
        })
        start = time.perf_counter()
        worker.handle(message)
        seconds.append(time.perf_counter() - start)
    worker.handle(Message("master", worker.node_id, "cleanup", {"job_id": "bench"}))
    assert worker.database.table_names() == ["data_dementia"]
    return len(scans), seconds


def vectorized(database: Database):
    return database.query(QUERY).to_rows()


def row_at_a_time(database: Database):
    """The anti-pattern the engine avoids: Python-level row iteration."""
    table = database.get_table("measurements")
    kept = []
    for age, volume in table.rows():
        if age is not None and age > 65 and volume is not None and 2.0 <= volume <= 4.5:
            kept.append(volume)
    n = len(kept)
    mean = sum(kept) / n if n else None
    if n > 1:
        variance = sum((v - mean) ** 2 for v in kept) / (n - 1)
        sd = variance**0.5
    else:
        sd = None
    return [(n, mean, sd)]


@udf(data=relation(), return_type=[secure_transfer()])
def bench_sums_local(data):
    matrix = data.to_matrix()
    return {
        "sums": {"data": matrix.sum(axis=0).tolist(), "operation": "sum"},
        "n": {"data": int(matrix.shape[0]), "operation": "sum"},
    }


def run_generated_udf(database: Database):
    application = generate_udf_application(
        get_spec(bench_sums_local), "bench", {"data": "measurements"}
    )
    tables = run_udf_application(database, application)
    for table in tables:
        database.drop_table(table, if_exists=True)
    database.execute(f"DROP FUNCTION IF EXISTS {application.function_name}")


@pytest.mark.parametrize("size", [10_000, 100_000])
def test_benchmark_vectorized(benchmark, size):
    database = build_database(size)
    benchmark.pedantic(vectorized, args=(database,), rounds=5, iterations=1)


@pytest.mark.parametrize("size", [10_000])
def test_benchmark_row_at_a_time(benchmark, size):
    database = build_database(size)
    benchmark.pedantic(row_at_a_time, args=(database,), rounds=3, iterations=1)


def test_benchmark_generated_udf(benchmark):
    database = build_database(50_000)
    benchmark.pedantic(run_generated_udf, args=(database,), rounds=3, iterations=1)


def test_report_vectorization():
    lines = [
        "E7 — in-engine vectorized execution vs row-at-a-time",
        f"(filter + aggregate: {QUERY[:60]}...)",
        "",
        f"{'rows':>9}{'vectorized (s)':>16}{'row-at-a-time (s)':>19}{'speedup':>9}",
    ]
    speedups = []
    for size in SIZES:
        database = build_database(size)
        reference = vectorized(database)
        start = time.perf_counter()
        for _ in range(3):
            vectorized(database)
        vec_time = (time.perf_counter() - start) / 3
        start = time.perf_counter()
        slow = row_at_a_time(database)
        row_time = time.perf_counter() - start
        # both approaches agree
        assert slow[0][0] == reference[0][0]
        assert slow[0][1] == pytest.approx(reference[0][1], rel=1e-9)
        speedup = row_time / vec_time
        speedups.append(speedup)
        lines.append(f"{size:>9}{vec_time:>16.5f}{row_time:>19.5f}{speedup:>9.1f}x")
    lines.append("")
    lines.append("shape: the vectorized engine wins by an order of magnitude at the")
    lines.append("largest size — the benefit MIP buys by running UDFs in-engine.")
    lines.append("")
    lines.append("wide table: the data-view scan over the 24-column hospital table")
    lines.append(f"({WIDE_QUERY[:62]}...)")
    lines.append("")
    lines.append(f"{'rows':>9}{'kept':>9}{'scan (s)':>11}{'ns/referenced cell':>20}{'ns/stored cell':>16}")
    per_referenced = []
    flows = []
    for size in SIZES:
        database = build_wide_database(size)
        stored = database.get_table("data_dementia").num_columns
        kept = database.query(WIDE_QUERY).num_rows
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            database.query(WIDE_QUERY)
            best = min(best, time.perf_counter() - start)
        per_referenced.append(best * 1e9 / (size * WIDE_REFERENCED))
        lines.append(
            f"{size:>9}{kept:>9}{best:>11.5f}{per_referenced[-1]:>20.1f}"
            f"{best * 1e9 / (size * stored):>16.1f}"
        )
        if size >= 100_000:
            flows.append((size, *run_iterative_flow(database)))
    lines.append("")
    lines.append("shape: past the fixed per-statement cost the scan pays a flat price per")
    lines.append("referenced cell; the 21 unreferenced columns are never touched")
    lines.append("(tests/engine/test_scan.py).")
    lines.append("")
    lines.append(f"iterative flow on a resident view: one worker, {VIEW_STEPS} local steps of one")
    lines.append("experiment over that data view (sums UDF; audit + threshold check every step)")
    lines.append("")
    lines.append(f"{'rows':>9}{'scans':>7}{'first step (s)':>16}{'later steps (s)':>17}{'first/later':>13}")
    for size, scans, seconds in flows:
        later = sum(seconds[1:]) / len(seconds[1:])
        lines.append(
            f"{size:>9}{scans:>7}{seconds[0]:>16.5f}{later:>17.5f}{seconds[0] / later:>12.1f}x"
        )
    lines.append("")
    lines.append("shape: the hospital table is scanned once per experiment; the first step")
    lines.append("pays the scan (and the one-off function definition), the later steps only")
    lines.append("the copy into the UDF and the UDF itself (tests/federation/test_worker_views.py).")
    write_report("e7_udf", lines)
    assert speedups[-1] > 5.0
    # Two scans per step before the view became resident: 12 here.
    assert [scans for _size, scans, _seconds in flows] == [1, 1]
    # The eager scan paid ~90 ns per referenced cell at 10^5 rows (all 24
    # columns gathered, literals broadcast per row); measured here ~8.
    assert per_referenced[-1] < 30.0
