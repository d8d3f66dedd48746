"""One run of one workload: set up, measure a window, check, report.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs a quarter of the window twice, first plain and then with
the benchmark's spans recording, and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.ladder import checks, tracing, workloads
from benchmarks.ladder.loadgen import Sample, Window, run_cycles
from benchmarks.ladder.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = Path(__file__).resolve().parent / "out"


def pin_to_fastest_cpu() -> None:
    """Pin the process (and the threads it will start) to one CPU.

    The sandbox's two virtual CPUs are not equally fast at all times: for
    minutes one of them runs the same code at half the speed of the other.
    Left unpinned, the fan-out pool threads land on whichever CPU is idle,
    and message-heavy requests double in latency while compute-heavy ones do
    not.  A short spin on each CPU picks the one to stay on.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    best: tuple[float, int] | None = None
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        fastest = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            total = 0
            for i in range(200_000):
                total += i * i % 7
            fastest = min(fastest, time.perf_counter() - started)
        if best is None or fastest < best[0]:
            best = (fastest, cpu)
    os.sched_setaffinity(0, {best[1]})


def declaration() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Deployment:
    """A federation with a warmed-up service on it."""

    workload: Workload
    seed: int
    tables: dict[str, Any]
    federation: Any
    service: Any
    state_dir: str | None
    setup_seconds: float
    warm_up: Window

    def shut_down(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.federation.shutdown()
            self.service = self.federation = None

    def close(self) -> None:
        self.shut_down()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


def set_up(workload: Workload, seed: int, out_dir: Path) -> Deployment:
    """Cohorts, federation, service and one warm-up cycle, timed together.

    The warm-up fills the UDF plan caches and finishes lazy imports, so the
    window that follows measures the steady state.
    """
    state_dir = None
    if workload.durable:
        out_dir.mkdir(parents=True, exist_ok=True)
        state_dir = tempfile.mkdtemp(prefix="state-", dir=out_dir)
    started = time.perf_counter()
    tables = workloads.generate_tables(workload, seed)
    federation = workloads.build_federation(workload, tables, seed)
    service = workloads.build_service(workload, federation, state_dir)
    warm_up = run_cycles(service, workload, cycles=1)
    elapsed = time.perf_counter() - started
    return Deployment(workload, seed, tables, federation, service, state_dir, elapsed, warm_up)


def check(deployment: Deployment, window: Window) -> tuple[dict[str, list[str]], dict[str, float]]:
    """Check every output of ``window``, shutting the deployment down.

    Returns the failures by job id and, for the durable workload, the
    recovery figures.
    """
    workload = deployment.workload
    # secure == plain: one plain run, after the window, of each request that
    # has no numpy reference.
    plain_results = {}
    keys = checks.needs_plain_run(workload)
    if keys:
        plain = workloads.build_service(
            workload, deployment.federation, None, aggregation="plain"
        )
        try:
            plain_results = {
                key: plain.wait_experiment(workloads.submit(plain, key)).result
                for key in keys
            }
        finally:
            plain.shutdown()
    deployment.shut_down()
    failures = checks.check_window(
        workload, deployment.tables, plain_results, window.samples
    )
    recovery: dict[str, float] = {}
    if workload.durable:
        acknowledged = {
            sample.job_id: checks.canonical(sample.outcome.result)
            for sample in deployment.warm_up.samples + window.samples
            if sample.outcome.status.value == "success"
        }
        fraction, seconds, lost = checks.check_recovery(
            workload, deployment.seed, deployment.state_dir, acknowledged
        )
        recovery = {"restored_fraction": fraction, "recover_ms": seconds * 1e3}
        for job_id, message in lost.items():
            failures.setdefault(job_id, []).append(message)
    return failures, recovery


# ---------------------------------------------------------------- end to end


def cycle_quantile(samples: list[Sample], quantile: float) -> float:
    """Median over cycles of the within-cycle latency quantile, in ms.

    Every cycle holds the same requests, so a cycle's quantile estimates the
    mix's; taking the median over cycles keeps one slow cycle from moving it
    (the pooled quantile of a mix of a few request types sits on the gap
    between two types and jumps with a single sample).
    """
    by_cycle: dict[int, list[float]] = {}
    for sample in samples:
        by_cycle.setdefault(sample.cycle, []).append(sample.latency)
    return 1e3 * statistics.median(
        float(np.quantile(latencies, quantile)) for latencies in by_cycle.values()
    )


def end_to_end(window: Window, workload: Workload, setup_seconds: float) -> dict[str, float]:
    return {
        "exp_per_s": len(workload.cycle) / statistics.median(window.cycle_walls),
        "latency_p50_ms": cycle_quantile(window.samples, 0.5),
        "latency_p90_ms": cycle_quantile(window.samples, 0.9),
        "cpu_ms_per_exp": 1e3 * window.cpu_seconds / len(window.samples),
        "setup_s": setup_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed_set_ups(workload: Workload, seed: int, rehearse: bool, out_dir: Path):
    """Set up at least 3 times (more when a set-up is short, up to 15 and
    about 2 s in all); returns the last deployment and the median time."""
    deployment = set_up(workload, seed, out_dir)
    seconds = [deployment.setup_seconds]
    if rehearse:
        total = min(15, max(3, round(2.0 / deployment.setup_seconds)))
        while len(seconds) < total:
            deployment.close()
            del deployment
            gc.collect()
            deployment = set_up(workload, seed, out_dir)
            seconds.append(deployment.setup_seconds)
    return deployment, statistics.median(seconds)


def run_untraced(
    workload: Workload, seed: int, cycles: int | None, seconds: float, rehearse: bool, out_dir: Path
):
    deployment, setup_seconds = timed_set_ups(workload, seed, rehearse, out_dir)
    try:
        window = run_cycles(deployment.service, workload, cycles, seconds)
        failures, _recovery = check(deployment, window)
    finally:
        deployment.close()
    values = end_to_end(window, workload, setup_seconds)
    return len(window.samples), failures, values


# ----------------------------------------------------------------- per layer

#: Registry counters read before and after the traced window.
COUNTERS = {
    "federation.transport.messages_per_exp": "repro_transport_messages_total",
    "federation.transport.bytes_per_exp": "repro_transport_bytes_sent_total",
    "federation.transport.payload_cells_per_exp": "repro_transport_payload_elements_total",
    "federation.transport.retries_per_exp": "repro_transport_retries_total",
    "federation.transport.failed_sends_per_exp": "repro_transport_failed_sends_total",
    "smpc.rounds_per_exp": "repro_smpc_rounds_total",
    "smpc.elements_per_exp": "repro_smpc_elements_total",
    "durability.appends_per_exp": "repro_journal_appends_total",
    "durability.fsyncs_per_exp": "repro_journal_fsyncs_total",
    "durability.bytes_per_exp": "repro_journal_bytes_appended_total",
}
PLAN_CACHE_HITS = "repro_udf_plan_cache_hits_total"
PLAN_CACHE_MISSES = "repro_udf_plan_cache_misses_total"


def latency_drift(samples: list[Sample]) -> float:
    """Median latency of the last tenth over the first tenth, per request;
    the median of those ratios over the workload's requests."""
    by_key: dict[str, list[float]] = {}
    for sample in samples:
        by_key.setdefault(sample.key, []).append(sample.latency)
    ratios = []
    for latencies in by_key.values():
        tenth = max(1, len(latencies) // 10)
        ratios.append(
            statistics.median(latencies[-tenth:]) / statistics.median(latencies[:tenth])
        )
    return statistics.median(ratios)


def attribute(spans: list[list[Any]], samples: list[Sample]):
    """Tile every experiment of the traced window.

    Returns the seconds and the calls per layer, summed over the window, and
    one record per experiment with its layer shares.
    """
    tracing.resolve_jobs(spans)
    by_job: dict[str, list[list[Any]]] = {}
    for span in spans:
        by_job.setdefault(span[tracing.JOB], []).append(span)
    seconds_total: dict[str, float] = {}
    calls_total: dict[str, int] = {}
    experiments = []
    for sample in samples:
        seconds, calls = tracing.tile(
            by_job.get(sample.job_id, []), sample.submitted, sample.returned
        )
        for layer, value in seconds.items():
            seconds_total[layer] = seconds_total.get(layer, 0.0) + value
        for layer, value in calls.items():
            calls_total[layer] = calls_total.get(layer, 0) + value
        experiments.append(
            {
                "job": sample.job_id,
                "request": sample.key,
                "wall_ms": 1e3 * sample.latency,
                "shares": {k: v / sample.latency for k, v in sorted(seconds.items())},
            }
        )
    return seconds_total, calls_total, experiments


def write_trace(path: Path, workload: Workload, seed: int, spans, experiments, origin: float):
    for span in spans:
        span[tracing.START] = round(span[tracing.START] - origin, 9)
        span[tracing.END] = round(span[tracing.END] - origin, 9)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "span_fields": ["id", "parent", "layer", "name", "start", "end", "thread", "job"],
                "experiments": experiments,
                "spans": spans,
            }
        )
    )


def run_traced(workload: Workload, seed: int, cycles: int | None, seconds: float, out_dir: Path):
    plain = set_up(workload, seed, out_dir)
    try:
        plain_window = run_cycles(plain.service, workload, cycles, seconds)
        measured = {sample.job_id for sample in plain_window.samples}
        queued = [
            job["queued_seconds"]
            for job in plain.service.jobs()
            if job["job_id"] in measured
        ]
        failures, _recovery = check(plain, plain_window)
    finally:
        plain.close()
    del plain
    gc.collect()

    with tracing.installed() as recorder:
        deployment = set_up(workload, seed, out_dir)
        try:
            recorder.spans.clear()
            before = deployment.service.metrics_snapshot()
            window = run_cycles(deployment.service, workload, cycles, seconds)
            after = deployment.service.metrics_snapshot()
            spans = list(recorder.spans)
            traced_failures, recovery = check(deployment, window)
        finally:
            deployment.close()
    for job_id, messages in traced_failures.items():
        failures.setdefault(job_id, []).extend(messages)

    count = len(window.samples)
    seconds_total, calls_total, experiments = attribute(spans, window.samples)
    values: dict[str, float] = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.self_ms_per_exp"] = 1e3 * seconds_total.get(layer, 0.0) / count
        values[f"{layer}.calls_per_exp"] = calls_total.get(layer, 0) / count
    for name, counter in COUNTERS.items():
        values[name] = (after.get(counter, 0.0) - before.get(counter, 0.0)) / count
    hits = after[PLAN_CACHE_HITS] - before[PLAN_CACHE_HITS]
    misses = after[PLAN_CACHE_MISSES] - before[PLAN_CACHE_MISSES]
    values["udfgen.plan_cache_hit_ratio"] = hits / (hits + misses)
    values["core.plan_executor.nodes_per_exp"] = (
        sum(1 for span in spans if span[tracing.NAME] == "PlanExecutor.submit") / count
    )
    values["core.plan_executor.dedup_hits_per_exp"] = (
        sum(sample.outcome.dedup_hits for sample in window.samples) / count
    )
    values["core.jobs.queued_ms_p50"] = 1e3 * statistics.median(queued)
    values["core.jobs.latency_drift_ratio"] = latency_drift(plain_window.samples)
    for layer in ("engine.sql", "engine.udf"):
        values[f"{layer}.ns_per_input_row"] = (
            1e6 * values[f"{layer}.self_ms_per_exp"] / workload.total_rows
        )
    values["durability.recover_ms"] = recovery.get("recover_ms", 0.0)
    values["durability.restored_fraction"] = recovery.get("restored_fraction", 0.0)
    values["trace.overhead_ratio"] = statistics.median(
        window.cycle_walls
    ) / statistics.median(plain_window.cycle_walls)
    values["trace.unattributed_share"] = seconds_total.get(
        tracing.UNATTRIBUTED, 0.0
    ) / sum(sample.latency for sample in window.samples)
    values["trace.spans_per_exp"] = len(spans) / count

    write_trace(
        out_dir / f"TRACE_{workload.name}.json",
        workload, seed, spans, experiments, origin=window.samples[0].submitted,
    )  # fmt: skip
    return len(plain_window.samples) + count, failures, values


# --------------------------------------------------------------------- entry


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    out_dir: Path = DEFAULT_OUT,
) -> dict[str, Any]:
    """One run; returns the object the driver reads from the last line."""
    workload = WORKLOADS[workload_name]
    declared = declaration()
    pin_to_fastest_cpu()
    if quick:
        workload = workload.quick()
    cycles = 2 if quick else None
    if trace:
        attempted, failures, values = run_traced(workload, seed, cycles, seconds / 4, out_dir)
        declared_metrics = declared["per_layer"]
    else:
        attempted, failures, values = run_untraced(
            workload, seed, cycles, seconds, not quick, out_dir
        )
        declared_metrics = declared["end_to_end"]
    for job_id, messages in failures.items():
        for message in messages:
            print(f"FAILED {job_id}: {message}", flush=True)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared_metrics
        },
    }
