"""E2 — §1 use case: "Federated analyses in Alzheimer's disease".

Four centers (Brescia 1960, Lausanne 1032, Lille 1103, ADNI 1066 — the
paper's caseload), data never leaving its hospital:

(a) how brain volumes contribute to diagnosis  -> federated linear
    regression of hippocampal volume on diagnosis + covariates,
(b) clusters on Abeta42, pTau and left entorhinal volume -> federated
    k-means (k = 3),
(c) influence of the non-AD etiologies PSY (depression) and VA (vascular
    damage) -> regression terms for both etiologies,
(d) which diagnosis groups differ in hippocampal volume -> one-way ANOVA
    with its Tukey HSD table, and what one table costs the master.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.algorithms.anova import tukey_hsd
from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.data.cohorts import alzheimers_use_case_cohorts
from repro.federation.controller import FederationConfig, create_federation

from benchmarks.conftest import write_report

DATASETS = ("brescia", "lausanne", "lille", "adni")


@pytest.fixture(scope="module")
def use_case_federation():
    cohorts = alzheimers_use_case_cohorts(seed=2024)
    return create_federation(
        {worker: {"dementia": table} for worker, table in cohorts.items()},
        FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=7),
    )


@pytest.fixture(scope="module")
def engine(use_case_federation):
    return ExperimentEngine(use_case_federation, aggregation="smpc")


def run(engine, algorithm, y, x=(), parameters=None):
    result = engine.run(
        ExperimentRequest(
            algorithm=algorithm,
            data_model="dementia",
            datasets=DATASETS,
            y=tuple(y),
            x=tuple(x),
            parameters=parameters or {},
        )
    )
    assert result.status.value == "success", result.error
    return result.result


def test_benchmark_use_case_regression(benchmark, engine):
    result = benchmark.pedantic(
        run, args=(engine, "linear_regression", ["lefthippocampus"],
                   ["alzheimerbroadcategory", "agevalue"]),
        rounds=3, iterations=1,
    )
    assert result["n_observations"] > 5000


def test_benchmark_use_case_kmeans(benchmark, engine):
    result = benchmark.pedantic(
        run, args=(engine, "kmeans", ["ab_42", "p_tau", "leftententorhinalarea"]),
        kwargs={"parameters": {"k": 3, "seed": 1, "iterations_max_number": 30}},
        rounds=3, iterations=1,
    )
    assert len(result["centroids"]) == 3


def tukey_table_ms(k: int, df: int, rounds: int = 5) -> float:
    """Best-of-``rounds`` wall time of one Tukey table from fixed aggregates:
    ``k`` groups of equal size with ``df + k`` observations in all."""
    levels = [f"g{i}" for i in range(k)]
    counts = np.full(k, (df + k) / k)
    means = 3.0 + 0.05 * np.arange(k)
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        table = tukey_hsd(levels, counts, means, 0.8125, df)
        best = min(best, time.perf_counter() - started)
    assert len(table) == k * (k - 1) // 2
    return 1000.0 * best


def test_report_use_case(engine):
    lines = ["E2 / §1 use case — federated analyses in Alzheimer's disease", ""]

    # (a) brain volume repartition across diagnosis
    regression = run(
        engine, "linear_regression",
        ["lefthippocampus"], ["alzheimerbroadcategory", "agevalue"],
    )
    lines.append("(a) linear regression: lefthippocampus ~ diagnosis + age "
                 f"(n={regression['n_observations']}, caseload of 4 centers)")
    lines.append(f"{'term':<32}{'coef':>10}{'se':>10}{'p':>12}")
    for name, coef, se, p in zip(
        regression["variable_names"], regression["coefficients"],
        regression["std_err"], regression["p_values"],
    ):
        lines.append(f"{name:<32}{coef:>10.4f}{se:>10.4f}{p:>12.2e}")
    lines.append(f"R^2 = {regression['r_squared']:.4f}")
    lines.append("")

    # (b) clusters on Abeta42, pTau, left entorhinal volume
    clusters = run(
        engine, "kmeans", ["ab_42", "p_tau", "leftententorhinalarea"],
        parameters={"k": 3, "seed": 1, "iterations_max_number": 50},
    )
    lines.append("(b) k-means (k=3) on Abeta42 / pTau / left entorhinal volume")
    lines.append(f"{'cluster':<10}{'ab_42':>12}{'p_tau':>12}{'ent. vol':>12}{'size':>8}")
    order = np.argsort([c[0] for c in clusters["centroids"]])
    for rank, index in enumerate(order):
        centroid = clusters["centroids"][index]
        lines.append(
            f"{rank:<10}{centroid[0]:>12.1f}{centroid[1]:>12.1f}"
            f"{centroid[2]:>12.3f}{clusters['cluster_sizes'][index]:>8}"
        )
    lines.append(f"iterations: {clusters['iterations']}, converged: {clusters['converged']}")
    lines.append("")

    # (c) influence of PSY and VA etiologies
    etiology = run(
        engine, "linear_regression",
        ["lefthippocampus"],
        ["alzheimerbroadcategory", "psy_etiology", "va_etiology"],
    )
    lines.append("(c) non-AD etiologies (PSY depression, VA vascular damage)")
    lines.append(f"{'term':<32}{'coef':>10}{'p':>12}")
    for name, coef, p in zip(
        etiology["variable_names"], etiology["coefficients"], etiology["p_values"],
    ):
        if "etiology" in name or "alzheimer" in name:
            lines.append(f"{name:<32}{coef:>10.4f}{p:>12.2e}")
    lines.append("")

    # (d) which diagnosis groups differ: one-way ANOVA + Tukey HSD
    anova = run(engine, "anova_oneway", ["lefthippocampus"], ["alzheimerbroadcategory"])
    lines.append("(d) one-way ANOVA: lefthippocampus across diagnosis "
                 f"(F({anova['df_between']}, {anova['df_within']}) = "
                 f"{anova['f_statistic']:.1f}, p = {anova['p_value']:.2e})")
    lines.append(f"{'pair':<12}{'diff':>10}{'q':>10}{'p adj':>12}{'95% CI':>22}")
    for row in anova["pairwise_comparisons"]:
        interval = f"[{row['ci_lower']:.4f}, {row['ci_upper']:.4f}]"
        lines.append(
            f"{' - '.join(row['groups']):<12}{row['mean_difference']:>10.4f}"
            f"{row['q_statistic']:>10.2f}{row['p_adjusted']:>12.2e}{interval:>22}"
        )
    lines.append("one Tukey table on the master, from fixed aggregates (best of 5):")
    lines.append(f"{'k':>4}{'df':>8}{'pairs':>8}{'ms':>10}")
    table_ms = {}
    for k, df in ((3, 128), (3, 5158), (5, 5156), (10, 5151)):
        table_ms[k, df] = tukey_table_ms(k, df)
        lines.append(f"{k:>4}{df:>8}{k * (k - 1) // 2:>8}{table_ms[k, df]:>10.2f}")
    write_report("e2_alzheimers", lines)

    # Expected shapes: AD lowers hippocampal volume; low-Abeta42 cluster has
    # high pTau and small entorhinal volume (the AD-like cluster).
    names = regression["variable_names"]
    assert regression["coefficients"][names.index("alzheimerbroadcategory[AD]")] < -0.5
    low_ab42 = order[0]
    high_ab42 = order[-1]
    assert clusters["centroids"][low_ab42][1] > clusters["centroids"][high_ab42][1]
    assert clusters["centroids"][low_ab42][2] < clusters["centroids"][high_ab42][2]
    # Every diagnosis pair differs on this caseload, and the table is master
    # arithmetic on four numbers: ~260 ms under SciPy's adaptive quadrature.
    assert all(row["significant"] for row in anova["pairwise_comparisons"])
    assert table_ms[3, 5158] < 20.0
