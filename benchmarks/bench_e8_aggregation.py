"""E8 — §2 Data aggregation: remote/merge tables vs SMPC.

The paper offers two ways to move local results to the Master: the
non-secure remote/merge-table path and the SMPC path (with either scheme).
This bench runs the *same* federated mean/sum experiment over all three and
reports latency plus transport traffic.  Expected shape:
plain < Shamir < full-threshold in cost, identical results.
"""

from __future__ import annotations

import time

import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation

from benchmarks.conftest import write_report

PATHS = (
    ("plain (remote/merge)", "plain", "shamir"),
    ("SMPC shamir", "smpc", "shamir"),
    ("SMPC full-threshold", "smpc", "full_threshold"),
)


def build(scheme: str):
    worker_data = {
        "h1": {"dementia": generate_cohort(CohortSpec("edsd", 250, seed=1))},
        "h2": {"dementia": generate_cohort(CohortSpec("adni", 250, seed=2))},
        "h3": {"dementia": generate_cohort(CohortSpec("ppmi", 250, seed=3))},
    }
    return create_federation(
        worker_data, FederationConfig(smpc_nodes=3, smpc_scheme=scheme, seed=21)
    )


def run_regression(federation, aggregation):
    engine = ExperimentEngine(federation, aggregation=aggregation)
    result = engine.run(
        ExperimentRequest(
            algorithm="linear_regression", data_model="dementia",
            datasets=("edsd", "adni", "ppmi"),
            y=("lefthippocampus",), x=("agevalue",),
        )
    )
    assert result.status.value == "success", result.error
    return result.result


@pytest.mark.parametrize("label, aggregation, scheme", PATHS,
                         ids=[p[0] for p in PATHS])
def test_benchmark_aggregation_path(benchmark, label, aggregation, scheme):
    federation = build(scheme)
    benchmark.pedantic(run_regression, args=(federation, aggregation),
                       rounds=3, iterations=1)


#: Network model used to price the metered protocol rounds (LAN, 1 Gb/s).
ROUND_TRIP_SECONDS = 0.002
BANDWIDTH_BYTES_PER_SECOND = 1.25e8
TIMED_RUNS = 10


def test_report_aggregation_paths():
    lines = [
        "E8 — aggregation paths for the same federated linear regression",
        "(3 hospitals, 750 rows total; cpu = process CPU, best of "
        f"{TIMED_RUNS} warm runs; modeled = cpu + metered network at "
        f"{ROUND_TRIP_SECONDS * 1e3:.0f} ms/round)",
        "",
        f"{'path':<24}{'cpu (s)':>10}{'modeled (s)':>13}{'coef(age)':>12}"
        f"{'SMPC rounds':>13}{'SMPC elems':>12}",
    ]
    # Every path runs once, metered but untimed, before any is timed: the
    # first runs in a process are slow, and whichever path went first would
    # pay for it.  The timed runs then take turns, and each path keeps its
    # best, since one run's spread on a shared host is wider than the
    # metered protocol cost the shape compares.
    federations = {label: build(scheme) for label, _, scheme in PATHS}
    meters = {}
    for label, aggregation, _ in PATHS:
        federation = federations[label]
        run_regression(federation, aggregation)
        communication = federation.smpc_cluster.communication
        meters[label] = (
            communication.rounds if aggregation == "smpc" else 0,
            communication.elements if aggregation == "smpc" else 0,
            federation.transport.stats.simulated_seconds,
        )
    timings = {label: [] for label, _, _ in PATHS}
    results = {}
    for _ in range(TIMED_RUNS):
        for label, aggregation, _ in PATHS:
            # Process CPU, every thread's: the transport's fan-out waits
            # are wall time, not work.
            start = time.process_time()
            results[label] = run_regression(federations[label], aggregation)
            timings[label].append(time.process_time() - start)
    coefficients = {}
    modeled = {}
    for label, _, _ in PATHS:
        used_rounds, used_elements, simulated = meters[label]
        elapsed = min(timings[label])
        total = (
            elapsed
            + used_rounds * ROUND_TRIP_SECONDS
            + (used_elements * 16) / BANDWIDTH_BYTES_PER_SECOND
            + simulated
        )
        coefficients[label] = results[label]["coefficients"][1]
        modeled[label] = total
        lines.append(
            f"{label:<24}{elapsed:>10.3f}{total:>13.3f}"
            f"{coefficients[label]:>12.6f}{used_rounds:>13}{used_elements:>12}"
        )
    lines.append("")
    lines.append("shape: all three paths return the same aggregate; the secure paths")
    lines.append("pay protocol overhead, FT paying more than Shamir.")
    write_report("e8_aggregation", lines)
    values = list(coefficients.values())
    assert max(values) - min(values) < 1e-3  # identical results (fixed-point tolerance)
    assert modeled["plain (remote/merge)"] <= modeled["SMPC shamir"]
    assert modeled["SMPC shamir"] <= modeled["SMPC full-threshold"]
