"""E6 — §2 Training: local DP vs secure aggregation.

Trains the same federated logistic model under (i) no privacy, (ii) local
DP (each worker perturbs its update), and (iii) secure aggregation with
central noise, across an epsilon sweep.  Expected shape: both private paths
approach the non-private accuracy as epsilon grows, and SA dominates local
DP at equal epsilon because one noise draw replaces one per worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation

from benchmarks.conftest import write_report

EPSILONS = (2.0, 8.0, 32.0, 128.0)
SEEDS = (0, 1, 2)
ROUNDS = 10


@pytest.fixture(scope="module")
def training_engine():
    worker_data = {
        f"hospital_{i}": {
            "dementia": generate_cohort(CohortSpec(f"site{i}", 400, seed=50 + i))
        }
        for i in range(4)
    }
    federation = create_federation(
        worker_data, FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=13)
    )
    engine = ExperimentEngine(federation)
    yield engine
    engine.shutdown()
    federation.shutdown()


def train(engine, mode, epsilon, seed=0, rounds=ROUNDS, experiment_id=None):
    """One ``federated_training`` experiment; returns its result dict.

    The SA path's noise is seeded by the cluster seed and the experiment's
    SMPC job ids, so a fixed ``experiment_id`` makes its release
    reproducible."""
    request = ExperimentRequest(
            algorithm="federated_training",
            data_model="dementia",
            datasets=tuple(f"site{i}" for i in range(4)),
            y=("converted_ad",),
            x=("lefthippocampus", "p_tau"),
            parameters={
                "mode": mode,
                "rounds": rounds,
                "learning_rate": 0.8,
                "clip_norm": 1.0,
                "epsilon": epsilon,
                "delta": 1e-5,
                "seed": seed,
                "evaluate_every": rounds,
            },
        )
    if experiment_id is None:
        result = engine.run(request)
    else:
        engine.submit(request, experiment_id=experiment_id)
        result = engine.wait(experiment_id)
    assert result.status.value == "success", result.error
    return result.result


def test_benchmark_training_round_sa(benchmark, training_engine):
    benchmark.pedantic(
        train, args=(training_engine, "sa", 16.0),
        kwargs={"rounds": 3}, rounds=2, iterations=1,
    )


def test_benchmark_training_round_dp(benchmark, training_engine):
    benchmark.pedantic(
        train, args=(training_engine, "dp", 16.0),
        kwargs={"rounds": 3}, rounds=2, iterations=1,
    )


def test_report_privacy_utility(training_engine):
    clean = train(training_engine, "none", 1.0)
    lines = [
        "E6 — training privacy/utility: local DP vs secure aggregation",
        f"(logistic model, 4 workers, {ROUNDS} rounds, mean over {len(SEEDS)} seeds)",
        "",
        f"non-private accuracy: {clean['final_accuracy']:.4f} "
        f"(loss {clean['final_loss']:.4f})",
        "",
        f"{'epsilon':>8}{'local-DP acc':>14}{'SA acc':>10}{'DP loss':>10}{'SA loss':>10}",
    ]
    table = {}
    for epsilon in EPSILONS:
        accuracy = {"dp": [], "sa": []}
        loss = {"dp": [], "sa": []}
        for seed in SEEDS:
            for mode in ("dp", "sa"):
                result = train(
                    training_engine, mode, epsilon, seed=seed,
                    experiment_id=f"e6_{mode}_eps{epsilon:g}_seed{seed}",
                )
                accuracy[mode].append(result["final_accuracy"])
                loss[mode].append(result["final_loss"])
        row = (
            float(np.mean(accuracy["dp"])), float(np.mean(accuracy["sa"])),
            float(np.mean(loss["dp"])), float(np.mean(loss["sa"])),
        )
        table[epsilon] = row
        lines.append(
            f"{epsilon:>8.1f}{row[0]:>14.4f}{row[1]:>10.4f}{row[2]:>10.4f}{row[3]:>10.4f}"
        )
    lines.append("")
    lines.append("shape: accuracy approaches the non-private ceiling as epsilon grows;")
    lines.append("secure aggregation (one central noise draw) dominates local DP")
    lines.append("(one draw per worker) at equal epsilon.")
    write_report("e6_training", lines)
    # both paths near the ceiling at the largest epsilon
    assert table[EPSILONS[-1]][0] > clean["final_accuracy"] - 0.12
    assert table[EPSILONS[-1]][1] > clean["final_accuracy"] - 0.12
    # SA no worse than DP on average across the sweep (its noise is 1/sqrt(k) smaller)
    sa_mean = np.mean([row[1] for row in table.values()])
    dp_mean = np.mean([row[0] for row in table.values()])
    assert sa_mean >= dp_mean - 0.05
    # smaller epsilon hurts (loss at eps=2 worse than at eps=128 for DP)
    assert table[EPSILONS[0]][2] >= table[EPSILONS[-1]][2] - 1e-6
