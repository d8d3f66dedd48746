"""Federated k-means."""

import numpy as np
import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.federation.controller import FederationConfig, create_federation

BIOMARKERS = ["ab_42", "p_tau", "leftententorhinalarea"]


class TestKMeans:
    def test_partitions_all_points(self, run):
        result = run("kmeans", y=BIOMARKERS, parameters={"k": 3, "seed": 1})
        assert sum(result["cluster_sizes"]) == result["n_observations"]
        assert len(result["centroids"]) == 3
        assert all(len(c) == len(BIOMARKERS) for c in result["centroids"])

    def test_inertia_monotone_nonincreasing(self, run):
        result = run("kmeans", y=BIOMARKERS, parameters={"k": 3, "seed": 1})
        history = result["inertia_history"]
        assert all(a >= b - 1e-6 for a, b in zip(history, history[1:]))

    def test_converges(self, run):
        result = run(
            "kmeans", y=BIOMARKERS,
            parameters={"k": 3, "seed": 1, "iterations_max_number": 200},
        )
        assert result["converged"]
        assert result["iterations"] < 200

    def test_max_iterations_respected(self, run):
        result = run(
            "kmeans", y=BIOMARKERS,
            parameters={"k": 3, "seed": 1, "iterations_max_number": 2},
        )
        assert result["iterations"] <= 2

    def test_deterministic_for_seed(self, run):
        a = run("kmeans", y=BIOMARKERS, parameters={"k": 3, "seed": 5})
        b = run("kmeans", y=BIOMARKERS, parameters={"k": 3, "seed": 5})
        assert a["centroids"] == b["centroids"]

    def test_matches_centralized_lloyd(self, run, pooled):
        """Same init + same data => identical trajectory to a local Lloyd's."""
        result = run(
            "kmeans", y=BIOMARKERS, parameters={"k": 3, "seed": 9, "e": 1e-6},
        )
        matrix = np.array(pooled(*BIOMARKERS), dtype=float)
        rng = np.random.default_rng(9)
        lower = matrix.min(axis=0)
        upper = matrix.max(axis=0)
        centroids = lower + rng.random((3, matrix.shape[1])) * (upper - lower)
        for _ in range(result["iterations"]):
            distances = ((matrix[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assignment = distances.argmin(axis=1)
            for j in range(3):
                members = matrix[assignment == j]
                if len(members):
                    centroids[j] = members.mean(axis=0)
        assert np.allclose(result["centroids"], centroids, atol=1e-6)

    def test_k_larger_than_n_rejected(self, run, federation):
        from repro.core.experiment import ExperimentEngine, ExperimentRequest

        engine = ExperimentEngine(federation, aggregation="plain")
        result = engine.run(
            ExperimentRequest(
                algorithm="kmeans",
                data_model="dementia",
                datasets=("edsd",),
                y=("p_tau",),
                parameters={"k": 20, "iterations_max_number": 1},
                filter_sql="p_tau > 148",  # keeps only a handful of rows
            )
        )
        # either privacy threshold (too few rows) or the explicit k > n error
        assert result.status.value == "error"

    def test_biomarker_clusters_separate_diagnosis(self, run, worker_data):
        """The use case: clusters over Abeta42/pTau/entorhinal volume align
        with the AD spectrum (one low-Abeta42, high-pTau cluster)."""
        result = run("kmeans", y=BIOMARKERS, parameters={"k": 3, "seed": 2})
        centroids = np.array(result["centroids"])
        ab42_order = centroids[:, 0].argsort()
        ptau_of_lowest_ab42 = centroids[ab42_order[0], 1]
        ptau_of_highest_ab42 = centroids[ab42_order[-1], 1]
        assert ptau_of_lowest_ab42 > ptau_of_highest_ab42


@pytest.fixture(scope="module")
def golden_run():
    """Plain-path runs on the golden-plan federation (3 x 60 pinned rows)."""
    from tests.core.test_golden_plans import DATASETS, golden_worker_data

    federation = create_federation(
        golden_worker_data(), FederationConfig(smpc_nodes=0, seed=0)
    )
    engine = ExperimentEngine(federation, aggregation="plain")

    def _run(parameters):
        outcome = engine.run(
            ExperimentRequest(
                algorithm="kmeans", data_model="dementia", datasets=DATASETS,
                y=("ab_42", "p_tau"), parameters=parameters,
            )
        )
        assert outcome.status.value == "success", outcome.error
        return outcome.result

    yield _run
    engine.shutdown()
    federation.shutdown()


class TestConvergedFlag:
    """``converged`` records a stop on tolerance, not the iteration count."""

    PARAMETERS = {"k": 2, "seed": 3, "e": 1e-4}

    def test_converging_on_the_last_allowed_iteration_is_converged(self, golden_run):
        early = golden_run({**self.PARAMETERS, "iterations_max_number": 100})
        assert (early["iterations"], early["converged"]) == (7, True)
        result = golden_run({**self.PARAMETERS, "iterations_max_number": 7})
        assert result == early

    def test_stopping_short_of_the_tolerance_is_not_converged(self, golden_run):
        result = golden_run({**self.PARAMETERS, "iterations_max_number": 6})
        assert (result["iterations"], result["converged"]) == (6, False)
