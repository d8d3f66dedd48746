"""E5 — Figure 1 architecture: scaling with the number of workers.

Two measurements:

1. *Scaling shape* — fixes the total caseload and partitions it over 1..8
   workers; measures the wall time of federated linear regression and
   k-means plus the transport traffic.  Expected shape: per-experiment time
   stays near-flat (master-side aggregation is constant-size) while
   per-worker data volume shrinks, and traffic grows linearly with the
   worker count.

2. *Fan-out speedup* — the same federation with ``sleep_latency=True`` so
   every message really costs its modeled network time, run once with
   ``parallelism=1`` (the pre-fan-out sequential dispatch) and once with
   full-width concurrent dispatch.  The parallel transport overlaps the
   per-worker sends, so wall time drops toward ``max()`` of each group
   instead of the sum — the speedup the production task queue provides.

Results are written human-readable (``results/e5_scaling.txt``), and the
4-worker fan-out samples in the stable schema the SLO gate reads
(``results/BENCH_e5_scaling.json``).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation

from benchmarks.conftest import RESULTS_DIR, write_metrics_snapshot, write_report

TOTAL_ROWS = 1600
WORKER_COUNTS = (1, 2, 4, 8)

#: Modeled per-message latency for the speedup measurement; large enough to
#: dominate scheduling noise, small enough for a CI smoke run.
SPEEDUP_LATENCY_S = 0.01


def build_federation(n_workers: int, parallelism: int | None = None,
                     sleep_latency: bool = False,
                     latency_seconds: float = 0.0005):
    rows_per_worker = TOTAL_ROWS // n_workers
    worker_data = {}
    for index in range(n_workers):
        cohort = generate_cohort(
            CohortSpec(f"site{index}", rows_per_worker, seed=100 + index)
        )
        worker_data[f"hospital_{index}"] = {"dementia": cohort}
    return create_federation(
        worker_data,
        FederationConfig(
            seed=5,
            parallelism=parallelism,
            sleep_latency=sleep_latency,
            latency_seconds=latency_seconds,
        ),
    )


def linreg_request(datasets):
    return ExperimentRequest(
        algorithm="linear_regression", data_model="dementia",
        datasets=datasets, y=("lefthippocampus",), x=("agevalue",),
    )


def kmeans_request(datasets):
    return ExperimentRequest(
        algorithm="kmeans", data_model="dementia", datasets=datasets,
        y=("ab_42", "p_tau"),
        parameters={"k": 3, "seed": 1, "iterations_max_number": 10, "e": 0.0},
    )


def run_experiments(federation, datasets):
    engine = ExperimentEngine(federation, aggregation="plain")
    regression = engine.run(linreg_request(datasets))
    assert regression.status.value == "success", regression.error
    clusters = engine.run(kmeans_request(datasets))
    assert clusters.status.value == "success", clusters.error
    return regression, clusters


@pytest.mark.parametrize("n_workers", [1, 4])
def test_benchmark_scaling(benchmark, n_workers):
    federation = build_federation(n_workers)
    datasets = tuple(f"site{i}" for i in range(n_workers))
    benchmark.pedantic(run_experiments, args=(federation, datasets),
                       rounds=2, iterations=1)


def _timed_linreg(
    n_workers: int, parallelism: int | None, rounds: int = 2
) -> tuple[float, dict, list[float]]:
    """Wall times of federated linear regression on a federation whose
    transport actually sleeps each message's modeled latency.  Returns the
    best-of-N time, the result payload, and every per-round sample (the
    sleeps dominate, so the samples are machine-portable)."""
    times: list[float] = []
    result = None
    for _ in range(rounds):
        federation = build_federation(
            n_workers, parallelism=parallelism, sleep_latency=True,
            latency_seconds=SPEEDUP_LATENCY_S,
        )
        datasets = tuple(f"site{i}" for i in range(n_workers))
        engine = ExperimentEngine(federation, aggregation="plain")
        t0 = time.perf_counter()
        outcome = engine.run(linreg_request(datasets))
        elapsed = time.perf_counter() - t0
        assert outcome.status.value == "success", outcome.error
        times.append(elapsed)
        result = outcome.result
    return min(times), result, times


def test_report_scaling():
    lines = [
        f"E5 — scaling with worker count (total caseload fixed at {TOTAL_ROWS} rows)",
        "",
        f"{'workers':>8}{'rows/worker':>13}{'linreg (s)':>12}{'kmeans (s)':>12}"
        f"{'messages':>10}{'MB sent':>10}{'sim net (s)':>12}",
    ]
    times = {}
    for n_workers in WORKER_COUNTS:
        federation = build_federation(n_workers)
        datasets = tuple(f"site{i}" for i in range(n_workers))
        run_experiments(federation, datasets)
        # isolate: rerun each algorithm separately for per-algo timing
        federation.transport.stats.reset()
        engine = ExperimentEngine(federation, aggregation="plain")
        t0 = time.perf_counter()
        engine.run(linreg_request(datasets))
        linreg_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.run(kmeans_request(datasets))
        kmeans_time = time.perf_counter() - t0
        stats = federation.transport.snapshot()
        lines.append(
            f"{n_workers:>8}{TOTAL_ROWS // n_workers:>13}{linreg_time:>12.3f}"
            f"{kmeans_time:>12.3f}{stats.messages:>10}"
            f"{stats.bytes_sent / 1e6:>10.3f}{stats.simulated_seconds:>12.4f}"
        )
        times[n_workers] = (linreg_time, kmeans_time, stats.messages)
    lines.append("")
    lines.append("shape: wall time stays near-flat as the caseload spreads; message")
    lines.append("count grows linearly with workers (per-worker task dispatch).")

    # ---- fan-out speedup: sequential vs concurrent dispatch -----------------
    lines.append("")
    lines.append(
        f"fan-out speedup — linear regression, sleep_latency transport "
        f"({SPEEDUP_LATENCY_S * 1000:.0f} ms/message)"
    )
    lines.append(
        f"{'workers':>8}{'sequential (s)':>16}{'parallel (s)':>14}{'speedup':>9}"
    )
    speedups = {}
    parallel_samples: list[float] = []
    for n_workers in WORKER_COUNTS:
        sequential_s, seq_result, _ = _timed_linreg(n_workers, parallelism=1)
        rounds = 5 if n_workers == 4 else 2
        parallel_s, par_result, par_times = _timed_linreg(
            n_workers, parallelism=None, rounds=rounds
        )
        if n_workers == 4:
            parallel_samples = par_times
        # The fan-out width must not change the numbers, only the wall time.
        assert seq_result["coefficients"] == par_result["coefficients"]
        speedup = sequential_s / parallel_s
        speedups[n_workers] = speedup
        lines.append(
            f"{n_workers:>8}{sequential_s:>16.3f}{parallel_s:>14.3f}{speedup:>9.2f}"
        )
    lines.append("")
    lines.append("speedup: concurrent dispatch overlaps per-worker sends, so wall")
    lines.append("time trends toward max() of each fan-out group instead of the sum.")
    write_report("e5_scaling", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    # Stable-schema result for the SLO gate (``repro health``): the 4-worker
    # parallel sleep-latency samples, dominated by deterministic modeled
    # sleeps rather than host speed.
    from repro.observability.slo import BenchResult

    stable = BenchResult.from_samples(
        "e5_scaling",
        parallel_samples,
        config={
            "workers": 4,
            "total_rows": TOTAL_ROWS,
            "latency_seconds": SPEEDUP_LATENCY_S,
            "parallelism": "auto",
            "algorithm": "linear_regression",
        },
    )
    (RESULTS_DIR / "BENCH_e5_scaling.json").write_text(
        json.dumps(stable.to_dict(), indent=2) + "\n"
    )

    # messages grow with worker count
    assert times[8][2] > times[1][2]
    # runtime does not explode with workers (within 4x of the single-worker run)
    assert times[8][0] < times[1][0] * 4 + 0.5
    # acceptance: concurrent dispatch at 4 workers at least halves wall time
    assert speedups[4] >= 2.0, f"4-worker fan-out speedup {speedups[4]:.2f} < 2.0"


# ---- observability overhead -------------------------------------------------

OVERHEAD_WORKERS = 4
OVERHEAD_ROUNDS = 3
OVERHEAD_BUDGET = 0.05  # tracing must cost < 5% wall time


def _overhead_round(traced: bool) -> float:
    """Wall time of one federated linear regression with the tracer on or
    off, on a sleep_latency transport (deterministic modeled sleeps dominate,
    so the measurement isolates instrumentation overhead from scheduling
    noise).  The round's engine and federation are shut down after it."""
    from repro.observability.trace import tracer

    tracer.reset()
    if traced:
        tracer.enable()
    else:
        tracer.disable()
    federation = build_federation(
        OVERHEAD_WORKERS, sleep_latency=True, latency_seconds=SPEEDUP_LATENCY_S,
    )
    engine = ExperimentEngine(federation, aggregation="plain")
    try:
        datasets = tuple(f"site{i}" for i in range(OVERHEAD_WORKERS))
        t0 = time.perf_counter()
        outcome = engine.run(linreg_request(datasets))
        elapsed = time.perf_counter() - t0
        assert outcome.status.value == "success", outcome.error
    finally:
        engine.shutdown()
        federation.shutdown()
    return elapsed


def _timed_traced_linreg() -> tuple[float, float]:
    """Best-of-N ``(untraced, traced)`` wall times.

    One untimed warm-up per side pays the cold start first; the timed rounds
    then alternate untraced and traced, so drift in the host's load falls on
    both sides alike instead of on whichever side ran first."""
    from repro.observability.trace import tracer

    was_enabled = tracer.enabled
    best = {False: float("inf"), True: float("inf")}
    try:
        for traced in (False, True):
            _overhead_round(traced)
        for _ in range(OVERHEAD_ROUNDS):
            for traced in (False, True):
                best[traced] = min(best[traced], _overhead_round(traced))
    finally:
        if not was_enabled:
            tracer.disable()
    return best[False], best[True]


def test_report_tracing_overhead():
    """Tracing the full flow must cost under the 5% overhead budget, and the
    resulting artifacts (Chrome trace, Prometheus metrics) must be complete."""
    from repro.observability.trace import tracer

    untraced_s, traced_s = _timed_traced_linreg()

    was_enabled = tracer.enabled
    # One more traced run records the exported artifacts.
    federation = build_federation(
        OVERHEAD_WORKERS, sleep_latency=True, latency_seconds=SPEEDUP_LATENCY_S
    )
    tracer.reset()
    tracer.enable()
    try:
        datasets = tuple(f"site{i}" for i in range(OVERHEAD_WORKERS))
        engine = ExperimentEngine(federation, aggregation="plain")
        outcome = engine.run(linreg_request(datasets))
        engine.shutdown()
        assert outcome.status.value == "success", outcome.error
        chrome = tracer.export_chrome()
    finally:
        tracer.reset()
        if not was_enabled:
            tracer.disable()

    overhead = traced_s / untraced_s - 1.0
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "TRACE_e5_linreg.chrome.json").write_text(
        json.dumps(chrome, indent=2) + "\n"
    )
    (RESULTS_DIR / "METRICS_e5_linreg.prom").write_text(
        federation.metrics_registry().render_prometheus()
    )
    write_metrics_snapshot("e5_linreg", federation)
    federation.shutdown()
    write_report("obs_overhead", [
        "Observability — tracing overhead on the E5 sleep-latency flow",
        "",
        f"{'workers':>8}{'untraced (s)':>14}{'traced (s)':>12}{'overhead':>10}",
        f"{OVERHEAD_WORKERS:>8}{untraced_s:>14.3f}{traced_s:>12.3f}"
        f"{overhead:>9.1%}",
        "",
        f"spans recorded: {len(chrome['traceEvents'])}",
    ])

    assert chrome["traceEvents"], "the traced run must record spans"
    names = {event["name"] for event in chrome["traceEvents"]}
    assert {"experiment", "transport.send", "udf.execute"} <= names
    assert overhead < OVERHEAD_BUDGET, (
        f"tracing overhead {overhead:.1%} exceeds the {OVERHEAD_BUDGET:.0%} budget"
    )
