"""SMPC kernel benchmark: python reference vs numpy limb kernel.

The headline number of the vectorized-kernel work: a 10k-element secure sum
at 3 nodes (the E4 shape) under each kernel and each scheme, with bit-exact
opened values and identical round/element telemetry asserted inline.  The
table is written to ``results/BENCH_smpc_kernels.txt`` and the machine-
readable summary to ``results/BENCH_smpc_kernels.json`` (the CI gate and the
README performance table read the JSON).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_smpc_kernels.py -s``
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_report
from repro.smpc import field
from repro.smpc.cluster import SMPCCluster

ELEMENTS = 10_000
NODES = 3
REPS = 5
SCHEMES = ("shamir", "full_threshold")
OPS = ("sum", "min", "union")
#: Comparison ops work on a flat bit matrix of 122 elements per compared
#: value.  1 and 8 are the shapes the algorithms emit (scalars; one entry per
#: feature or level); 200 is the synthetic long batch.  The dispatch constant
#: ``field.NUMPY_MIN_ELEMENTS`` is re-derived from these rows.
COMPARE_ELEMENTS = (1, 8, 200)


def _payloads(n_elements: int, operation: str) -> dict[str, dict]:
    rng = np.random.default_rng(42)
    out = {}
    for i in range(NODES):
        if operation == "union":
            data = rng.integers(0, 2, n_elements).astype(float).tolist()
        else:
            data = rng.normal(0.0, 100.0, n_elements).tolist()
        out[f"worker_{i}"] = {"stat": {"data": data, "operation": operation}}
    return out


def _run_once(kernel: str, scheme: str, operation: str, n_elements: int):
    previous = field.set_kernel(kernel)
    try:
        times: list[float] = []
        result = meter = None
        for _ in range(REPS):
            cluster = SMPCCluster(n_nodes=NODES, scheme=scheme, seed=7)
            payloads = _payloads(n_elements, operation)
            start = time.perf_counter()
            for worker, payload in payloads.items():
                cluster.import_shares("job", worker, payload)
            result = cluster.aggregate("job")
            times.append(time.perf_counter() - start)
            meter = (cluster.communication.rounds, cluster.communication.elements)
        return min(times), result, meter, times
    finally:
        field.set_kernel(previous)


def test_kernel_speedup_table():
    lines = [
        "SMPC kernel comparison: python reference vs numpy limb kernel",
        f"secure aggregation, {NODES} nodes, best of {REPS} runs",
        "(auto = default deployment mode: limb kernel for long vectors,",
        " python bignums below the dispatch-overhead crossover)",
        "",
        f"{'scheme':<16} {'op':<6} {'n':>6} {'python_ms':>10} {'numpy_ms':>9} "
        f"{'auto_ms':>8} {'speedup':>8} {'rounds':>7} {'elements':>9}",
    ]
    summary: dict = {
        "benchmark": "smpc_kernels",
        "elements": ELEMENTS,
        "nodes": NODES,
        "reps": REPS,
        "rows": [],
    }
    headline_samples: list[float] = []
    cases = [
        (operation, n)
        for operation in OPS
        for n in ((ELEMENTS,) if operation == "sum" else COMPARE_ELEMENTS)
    ]
    for scheme in SCHEMES:
        for operation, n in cases:
            t_py, r_py, m_py, _ = _run_once("python", scheme, operation, n)
            t_np, r_np, m_np, np_times = _run_once("numpy", scheme, operation, n)
            t_auto, r_auto, m_auto, _ = _run_once("auto", scheme, operation, n)
            # The tentpole acceptance: bit-exact opened values and unchanged
            # SMPC telemetry under both kernels (and the auto router).
            assert r_py == r_np == r_auto, (
                f"{scheme}/{operation}/{n}: opened values differ"
            )
            assert m_py == m_np == m_auto, f"{scheme}/{operation}/{n}: telemetry differs"
            speedup = t_py / t_np
            lines.append(
                f"{scheme:<16} {operation:<6} {n:>6} {t_py * 1000:>10.2f} "
                f"{t_np * 1000:>9.2f} {t_auto * 1000:>8.2f} {speedup:>7.2f}x "
                f"{m_np[0]:>7} {m_np[1]:>9}"
            )
            summary["rows"].append(
                {
                    "scheme": scheme,
                    "operation": operation,
                    "elements": n,
                    "python_ms": round(t_py * 1000, 3),
                    "numpy_ms": round(t_np * 1000, 3),
                    "auto_ms": round(t_auto * 1000, 3),
                    "speedup": round(speedup, 3),
                    "rounds": m_np[0],
                    "meter_elements": m_np[1],
                    "bit_exact": True,
                }
            )
            if scheme == "shamir" and operation == "sum":
                summary["headline_speedup"] = round(speedup, 3)
                headline_samples = np_times
    lines += [
        "",
        "sum rows are the 10k-element headline.  min/union run on a flat bit",
        "matrix of 122 elements per compared value with a log-depth carry tree:",
        "n = 1 and 8 are the shapes the algorithms emit (auto keeps them on",
        "python bignums), n = 200 is a synthetic long batch (auto hands it to",
        "the limb kernel).  full_threshold sharing is dominated by the",
        "stream-pinned per-party RNG draws both kernels must replay",
        "identically, so its speedup is bounded by the draw cost.",
    ]
    write_report("BENCH_smpc_kernels", lines)
    # Fold in the stable SLO-gate schema (``repro health`` reads name /
    # config / samples / p50 / p95 / wall_s) on top of the detailed table:
    # the headline is the shamir 10k-sum under the numpy limb kernel.
    from repro.observability.slo import BenchResult

    stable = BenchResult.from_samples(
        "smpc_kernels",
        headline_samples,
        config={
            "scheme": "shamir",
            "operation": "sum",
            "elements": ELEMENTS,
            "nodes": NODES,
            "kernel": "numpy",
        },
    )
    summary.update(stable.to_dict())
    (RESULTS_DIR / "BENCH_smpc_kernels.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    # The tentpole floor, also enforced (more leniently) by the CI gate.
    assert summary["headline_speedup"] >= 1.0
