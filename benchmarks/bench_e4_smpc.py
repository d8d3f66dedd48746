"""E4 — §2 SMPC: the FT-vs-Shamir security/efficiency trade-off.

"FT is very secure with abort against an active-malicious majority ...
But, computations are slow with FT.  Shamir's secret sharing scheme
(with t < n/2) is much faster, but is secure only against
honest-but-curious threat models."

Sweeps secure-sum latency and communication over vector sizes and party
counts; the expected shape is FT > Shamir by a clear factor at every size,
with both linear in vector length.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.smpc.cluster import SMPCCluster

from benchmarks.conftest import write_report

VECTOR_SIZES = (64, 256, 1024)


def secure_sum(scheme: str, size: int, n_nodes: int = 3, seed: int = 1):
    cluster = SMPCCluster(n_nodes, scheme, seed=seed)
    rng = np.random.default_rng(seed)
    for worker in ("w1", "w2", "w3"):
        cluster.import_shares(
            "job", worker,
            {"v": {"data": rng.normal(0, 10, size).tolist(), "operation": "sum"}},
        )
    cluster.aggregate("job")
    return cluster


def secure_min(scheme: str, size: int, seed: int = 1):
    cluster = SMPCCluster(3, scheme, seed=seed)
    rng = np.random.default_rng(seed)
    for worker in ("w1", "w2"):
        cluster.import_shares(
            "job", worker,
            {"v": {"data": rng.normal(0, 10, size).tolist(), "operation": "min"}},
        )
    cluster.aggregate("job")
    return cluster


@pytest.mark.parametrize("scheme", ["shamir", "full_threshold"])
@pytest.mark.parametrize("size", [64, 512])
def test_benchmark_secure_sum(benchmark, scheme, size):
    benchmark.pedantic(secure_sum, args=(scheme, size), rounds=3, iterations=1)


@pytest.mark.parametrize("scheme", ["shamir", "full_threshold"])
def test_benchmark_secure_min(benchmark, scheme):
    benchmark.pedantic(secure_min, args=(scheme, 32), rounds=2, iterations=1)


#: Network model for the deployed-cluster estimate: LAN-grade RTT and 1 Gb/s.
ROUND_TRIP_SECONDS = 0.002
BANDWIDTH_BYTES_PER_SECOND = 1.25e8


def modeled_seconds(cluster, wall: float) -> float:
    """Wall time plus the metered protocol communication under the network
    model — what a deployed cluster would observe.  The in-process simulation
    executes every 'round' instantly, so rounds must be priced explicitly."""
    meter = cluster.communication
    return wall + meter.rounds * ROUND_TRIP_SECONDS + meter.bytes_sent / BANDWIDTH_BYTES_PER_SECOND


def test_report_ft_vs_shamir():
    lines = [
        "E4 — SMPC security/efficiency trade-off (secure sum, 3 SMPC nodes)",
        f"(network model: {ROUND_TRIP_SECONDS * 1e3:.0f} ms/round, 1 Gb/s)",
        "",
        f"{'vector':>8}{'scheme':>16}{'cpu (s)':>10}{'modeled (s)':>13}{'rounds':>9}"
        f"{'elements':>11}{'offline dealt':>15}",
    ]
    ratios = []
    for size in VECTOR_SIZES:
        timings = {}
        for scheme in ("shamir", "full_threshold"):
            start = time.perf_counter()
            cluster = secure_sum(scheme, size)
            elapsed = time.perf_counter() - start
            total = modeled_seconds(cluster, elapsed)
            timings[scheme] = total
            meter = cluster.communication
            lines.append(
                f"{size:>8}{scheme:>16}{elapsed:>10.4f}{total:>13.4f}{meter.rounds:>9}"
                f"{meter.elements:>11}{cluster.offline_usage.elements_dealt:>15}"
            )
        ratios.append(timings["full_threshold"] / timings["shamir"])
    lines.append("")
    lines.append(
        "FT/Shamir modeled-time ratio per size: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
    )
    # Communication ordering (the protocol-level claim) is deterministic:
    shamir = secure_sum("shamir", 256)
    ft = secure_sum("full_threshold", 256)
    lines.append(
        f"communication at n=256: FT {ft.communication.elements} elements / "
        f"{ft.communication.rounds} rounds vs Shamir "
        f"{shamir.communication.elements} / {shamir.communication.rounds}"
    )
    write_report("e4_smpc", lines)
    assert ft.communication.elements > 2 * shamir.communication.elements
    assert ft.communication.rounds > shamir.communication.rounds
    # FT slower than Shamir at every size once communication is priced
    assert all(r > 1.0 for r in ratios)


def test_report_comparison_heavy_ops():
    lines = [
        "E4b — comparison-heavy operations (secure element-wise min, 2 inputs)",
        "",
        f"{'vector':>8}{'scheme':>16}{'cpu (s)':>10}{'modeled (s)':>13}{'rounds':>8}"
        f"{'elements':>10}{'triples':>9}{'rand bits':>11}",
    ]
    rounds = {}
    for size in (1, 16, 64):
        for scheme in ("shamir", "full_threshold"):
            start = time.perf_counter()
            cluster = secure_min(scheme, size)
            elapsed = time.perf_counter() - start
            usage = cluster.offline_usage
            meter = cluster.communication
            rounds[scheme] = meter.rounds
            lines.append(
                f"{size:>8}{scheme:>16}{elapsed:>10.4f}{modeled_seconds(cluster, elapsed):>13.4f}"
                f"{meter.rounds:>8}{meter.elements:>10}{usage.triples:>9}{usage.random_bits:>11}"
            )
    lines.append("")
    lines.append(
        "rounds do not depend on the vector length: one masked open plus one"
    )
    lines.append(
        "fused Beaver open per carry-tree level (7 levels for 82 bits); "
        f"FT/Shamir = {rounds['full_threshold']}/{rounds['shamir']}"
        f" = {rounds['full_threshold'] / rounds['shamir']:.2f}x"
    )
    lines.append("min/max consume offline material (comparison bits + triples);")
    lines.append("sums are linear and consume none — matching the paper's note that")
    lines.append("SMPC overhead concentrates in multiplications/comparisons.")
    write_report("e4b_smpc_comparisons", lines)
    sum_cluster = secure_sum("shamir", 64)
    min_cluster = secure_min("shamir", 64)
    assert sum_cluster.offline_usage.triples == 0
    assert min_cluster.offline_usage.triples > 0
    assert rounds["shamir"] < rounds["full_threshold"] <= 40
