"""Reliability properties: determinism and concurrent use."""

import threading

import numpy as np
import pytest

from repro import (
    CohortSpec,
    FederationConfig,
    MIPService,
    create_federation,
    generate_cohort,
)


def build_service(seed=5, aggregation="plain"):
    federation = create_federation(
        {
            "h1": {"dementia": generate_cohort(CohortSpec("edsd", 120, seed=1))},
            "h2": {"dementia": generate_cohort(CohortSpec("adni", 120, seed=2))},
        },
        FederationConfig(seed=seed),
    )
    return MIPService(federation, aggregation=aggregation)


class TestDeterminism:
    def test_identical_setups_identical_results(self):
        """Same data, same seeds => byte-identical experiment results."""
        results = []
        for _ in range(2):
            service = build_service()
            outcome = service.run_experiment(
                "kmeans", "dementia", ["edsd", "adni"],
                y=["ab_42", "p_tau"], parameters={"k": 3, "seed": 9},
            )
            assert outcome.status.value == "success"
            results.append(outcome.result)
        assert results[0]["centroids"] == results[1]["centroids"]
        assert results[0]["inertia_history"] == results[1]["inertia_history"]

    def test_smpc_path_deterministic_results(self):
        """The protocol's randomness (shares, masks) must not leak into the
        opened aggregates."""
        values = []
        for seed in (11, 22):  # different protocol randomness
            federation = create_federation(
                {
                    "h1": {"dementia": generate_cohort(CohortSpec("edsd", 100, seed=1))},
                    "h2": {"dementia": generate_cohort(CohortSpec("adni", 100, seed=2))},
                },
                FederationConfig(smpc_scheme="shamir", seed=seed),
            )
            service = MIPService(federation, aggregation="smpc")
            outcome = service.run_experiment(
                "linear_regression", "dementia", ["edsd", "adni"],
                y=["lefthippocampus"], x=["agevalue"],
            )
            assert outcome.status.value == "success"
            values.append(outcome.result["coefficients"])
        assert np.allclose(values[0], values[1], atol=1e-9)


class TestConcurrentExperiments:
    def test_parallel_experiments_share_a_federation(self):
        """Several analysts can hit the same federation concurrently; the
        engines' reentrant locks keep statement execution consistent."""
        service = build_service()
        errors: list[str] = []
        outputs: dict[int, float] = {}

        def analyst(index: int) -> None:
            outcome = service.run_experiment(
                "ttest_onesample", "dementia", ["edsd", "adni"],
                y=["p_tau"], parameters={"mu": 40.0 + index},
            )
            if outcome.status.value != "success":
                errors.append(outcome.error)
            else:
                outputs[index] = outcome.result["t_statistic"]

        threads = [threading.Thread(target=analyst, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(outputs) == 6
        # different hypothesized means => strictly decreasing t statistics
        ordered = [outputs[i] for i in range(6)]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))

    def test_worker_tables_clean_after_parallel_runs(self):
        service = build_service()
        worker = service.federation.workers["h1"]
        before = set(worker.database.table_names())

        def analyst() -> None:
            service.run_experiment(
                "pearson_correlation", "dementia", ["edsd", "adni"],
                y=["lefthippocampus", "righthippocampus"],
            )

        threads = [threading.Thread(target=analyst) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(worker.database.table_names()) == before


class TestParallelDispatchEquivalence:
    def test_sequential_and_parallel_federations_agree(self):
        """parallelism=1 (the old per-worker loops) and full fan-out must
        produce byte-identical experiment results."""
        results = []
        for parallelism in (1, None):
            federation = create_federation(
                {
                    "h1": {"dementia": generate_cohort(CohortSpec("edsd", 120, seed=1))},
                    "h2": {"dementia": generate_cohort(CohortSpec("adni", 120, seed=2))},
                },
                FederationConfig(seed=5, parallelism=parallelism),
            )
            service = MIPService(federation, aggregation="plain")
            outcome = service.run_experiment(
                "kmeans", "dementia", ["edsd", "adni"],
                y=["ab_42", "p_tau"], parameters={"k": 3, "seed": 9},
            )
            assert outcome.status.value == "success"
            results.append(outcome.result)
        assert results[0]["centroids"] == results[1]["centroids"]
        assert results[0]["inertia_history"] == results[1]["inertia_history"]

    def test_transport_stats_identical_across_widths(self):
        """The fan-out width changes wall-clock, never traffic."""
        counts = []
        for parallelism in (1, 4):
            federation = create_federation(
                {
                    "h1": {"dementia": generate_cohort(CohortSpec("edsd", 80, seed=1))},
                    "h2": {"dementia": generate_cohort(CohortSpec("adni", 80, seed=2))},
                },
                FederationConfig(seed=5, parallelism=parallelism),
            )
            service = MIPService(federation, aggregation="plain")
            outcome = service.run_experiment(
                "linear_regression", "dementia", ["edsd", "adni"],
                y=["lefthippocampus"], x=["agevalue"],
            )
            assert outcome.status.value == "success"
            snapshot = federation.transport.snapshot()
            counts.append((snapshot.messages, snapshot.bytes_sent))
        assert counts[0] == counts[1]


class TestFailureInjectionUnderConcurrency:
    def test_seeded_drops_fail_experiments_deterministically(self):
        """With a seeded lossy transport the same experiment either fails or
        succeeds identically on every run, regardless of fan-out threads."""
        outcomes = []
        for _ in range(2):
            federation = create_federation(
                {
                    "h1": {"dementia": generate_cohort(CohortSpec("edsd", 80, seed=1))},
                    "h2": {"dementia": generate_cohort(CohortSpec("adni", 80, seed=2))},
                },
                FederationConfig(seed=13, drop_probability=0.2),
            )
            service = MIPService(federation, aggregation="plain")
            outcome = service.run_experiment(
                "ttest_onesample", "dementia", ["edsd", "adni"],
                y=["p_tau"], parameters={"mu": 40.0},
            )
            outcomes.append((outcome.status.value, outcome.error))
        assert outcomes[0] == outcomes[1]

    def test_worker_down_mid_session_recovers(self):
        """A worker going down fails in-flight experiments cleanly; after
        recovery the same federation serves experiments again."""
        service = build_service()
        service.federation.set_worker_down("h2")
        outcome = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd", "adni"],
            y=["p_tau"], parameters={"mu": 40.0},
        )
        assert outcome.status.value != "success"
        service.federation.set_worker_down("h2", down=False)
        retry = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd", "adni"],
            y=["p_tau"], parameters={"mu": 40.0},
        )
        assert retry.status.value == "success"
        snapshot = service.federation.transport.snapshot()
        assert snapshot.messages > 0 and snapshot.failed_sends > 0
