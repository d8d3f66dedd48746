"""Durability overhead: the write-ahead journal on the e5 workload.

Runs the e5 scaling workload (4-worker federated linear regression on a
``sleep_latency`` transport, so deterministic modeled sends dominate the
wall time) twice — once with a :class:`DurabilityManager` journaling every
submit/dispatch/read/terminal, once without — and gates the journaled p95
against the recorded e5 baseline: durability must cost **< 5%**.

A micro-section also reports raw journal append throughput so regressions
in the framing/fsync path show up even when the macro gate has headroom.
It appends ``step`` records carrying a read value the size of a
three-predictor linear regression's aggregate (a 3 x 3 ``xtx``), which is
the record the platform writes per federation read.

Results land in ``results/BENCH_journal.json`` (stable BenchResult schema
plus the comparison block) and ``results/journal_overhead.txt``.
"""

from __future__ import annotations

import json
import tempfile
import time

from repro.core.experiment import ExperimentEngine
from repro.durability.recovery import DurabilityManager
from repro.observability.slo import BenchResult

from benchmarks.bench_e5_scaling import (
    SPEEDUP_LATENCY_S,
    TOTAL_ROWS,
    build_federation,
    linreg_request,
)
from benchmarks.conftest import RESULTS_DIR, write_report

WORKERS = 4
ROUNDS = 5
OVERHEAD_BUDGET = 0.05  # journaling must cost < 5% of the e5 p95
BASELINE_PATH = RESULTS_DIR / "BASELINE_e5_scaling.json"
MICRO_APPENDS = 2000
#: One aggregate read of linear regression on three predictors.
MICRO_READ_VALUE = {
    "n": 1600.0,
    "xtx": [[1600.0, 112834.2, 4803.9], [112834.2, 8012345.6, 339201.7],
            [4803.9, 339201.7, 14511.3]],
    "xty": [4712.6, 332760.1, 14150.8],
    "yty": 13901.4,
}


def _timed_linreg(durability: DurabilityManager | None) -> float:
    federation = build_federation(
        WORKERS, sleep_latency=True, latency_seconds=SPEEDUP_LATENCY_S
    )
    engine = ExperimentEngine(
        federation, aggregation="plain", durability=durability
    )
    datasets = tuple(f"site{i}" for i in range(WORKERS))
    t0 = time.perf_counter()
    outcome = engine.run(linreg_request(datasets))
    elapsed = time.perf_counter() - t0
    assert outcome.status.value == "success", outcome.error
    return elapsed


def _micro_append_rate(state_dir: str) -> tuple[float, dict]:
    manager = DurabilityManager(state_dir)
    payload = {
        "job_id": "bench",
        "index": 0,
        "key": "SecureAggregateNode:n2",
        "value": MICRO_READ_VALUE,
    }
    t0 = time.perf_counter()
    for index in range(MICRO_APPENDS):
        manager.journal.append("step", dict(payload, index=index))
    elapsed = time.perf_counter() - t0
    stats = manager.stats()
    manager.close()
    return MICRO_APPENDS / elapsed, stats


def test_benchmark_journal_overhead():
    plain_samples: list[float] = []
    journaled_samples: list[float] = []
    journal_stats: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as state_dir:
        for round_index in range(ROUNDS):
            plain_samples.append(_timed_linreg(None))
            manager = DurabilityManager(f"{state_dir}/run{round_index}")
            journaled_samples.append(_timed_linreg(manager))
            journal_stats = manager.stats()
            manager.close()
        micro_rate, micro_stats = _micro_append_rate(f"{state_dir}/micro")

    journaled = BenchResult.from_samples(
        "journal_overhead",
        journaled_samples,
        config={
            "workers": WORKERS,
            "total_rows": TOTAL_ROWS,
            "latency_seconds": SPEEDUP_LATENCY_S,
            "parallelism": "auto",
            "algorithm": "linear_regression",
            "journaled": True,
        },
    )
    plain = BenchResult.from_samples("journal_off", plain_samples)

    baseline = json.loads(BASELINE_PATH.read_text())
    # The recorded baseline anchors the gate, but host speed drifts between
    # the machine that recorded it and the one running CI — so the reference
    # is the *slower* of the baseline and a same-host journal-off run.  On a
    # baseline-speed host this is exactly "<5% over BASELINE_e5_scaling";
    # elsewhere it degrades to the paired on/off comparison.
    reference_p95 = max(baseline["p95"], plain.p95)
    budget_p95 = reference_p95 * (1.0 + OVERHEAD_BUDGET)

    lines = [
        "journal overhead on the e5 workload "
        f"({WORKERS} workers, {ROUNDS} rounds, sleep-latency transport)",
        "",
        f"  {'':<14}{'p50 (s)':>10}{'p95 (s)':>10}",
        f"  {'journal off':<14}{plain.p50:>10.4f}{plain.p95:>10.4f}",
        f"  {'journal on':<14}{journaled.p50:>10.4f}{journaled.p95:>10.4f}",
        f"  {'e5 baseline':<14}{baseline['p50']:>10.4f}{baseline['p95']:>10.4f}",
        "",
        f"  gate: journaled p95 {journaled.p95:.4f} < "
        f"max(baseline, journal-off) p95 * {1 + OVERHEAD_BUDGET:.2f} "
        f"= {budget_p95:.4f}",
        f"  per-experiment journal records: "
        f"{journal_stats.get('journal', {}).get('appends_total', 0)}",
        f"  micro append rate: {micro_rate:,.0f} records/s "
        f"({MICRO_APPENDS} framed+CRC'd appends)",
    ]
    write_report("journal_overhead", lines)

    payload = journaled.to_dict()
    payload["comparison"] = {
        "baseline": "BASELINE_e5_scaling.json",
        "baseline_p95": baseline["p95"],
        "reference_p95": round(reference_p95, 6),
        "budget": OVERHEAD_BUDGET,
        "budget_p95": round(budget_p95, 6),
        "plain_p50": plain.p50,
        "plain_p95": plain.p95,
        "micro_appends_per_second": round(micro_rate, 1),
        "journal_stats": journal_stats,
        "micro_stats": micro_stats,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_journal.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # With only ROUNDS samples the p95 is effectively the max, so a single
    # scheduler hiccup could trip the tail gate on a loaded CI host.  The
    # paired medians are far more stable: accept the run when either the
    # tail is inside the budget or the median overhead clearly is.
    median_overhead = journaled.p50 / plain.p50 - 1.0
    assert journaled.p95 < budget_p95 or median_overhead < OVERHEAD_BUDGET, (
        f"journaling p95 {journaled.p95:.4f}s exceeds the {OVERHEAD_BUDGET:.0%} "
        f"budget over the e5 baseline ({budget_p95:.4f}s) and the paired "
        f"median overhead is {median_overhead:.1%}"
    )
    # Sanity: journaling really happened during the timed runs.
    assert journal_stats["journal"]["appends_total"] > 0
