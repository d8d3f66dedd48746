"""Cross-module integration: the full platform under realistic conditions."""

import numpy as np
import pytest

from repro import (
    CohortSpec,
    FederationConfig,
    MIPService,
    create_federation,
    generate_cohort,
)
from repro.data.cdes import dementia_data_model
from repro.etl.harmonize import harmonize_table
from repro.etl.loader import load_csv_text
from repro.federation.worker import Worker


class TestFullStackSMPC:
    """Experiments over the secure path with the full-threshold scheme."""

    @pytest.fixture(scope="class")
    def service(self):
        federation = create_federation(
            {
                "h1": {"dementia": generate_cohort(CohortSpec("edsd", 90, seed=1))},
                "h2": {"dementia": generate_cohort(CohortSpec("adni", 80, seed=2))},
            },
            FederationConfig(smpc_nodes=3, smpc_scheme="full_threshold", seed=9),
        )
        return MIPService(federation, aggregation="smpc")

    def test_linear_regression_under_ft_smpc(self, service):
        result = service.run_experiment(
            "linear_regression", "dementia", ["edsd", "adni"],
            y=["lefthippocampus"], x=["agevalue"],
        )
        assert result.status.value == "success"
        assert result.result["n_observations"] == 170
        # the fixed-point pipeline keeps ~4 decimals of precision
        assert abs(result.result["coefficients"][1]) < 1.0

    def test_smpc_cluster_was_used(self, service):
        cluster = service.federation.smpc_cluster
        assert cluster.communication.rounds > 0
        # Secure min/max (descriptive stats) consumes offline material
        # (shared random bits for the comparison protocol).
        result = service.run_experiment(
            "descriptive_stats", "dementia", ["edsd", "adni"], y=["p_tau"],
        )
        assert result.status.value == "success"
        assert cluster.offline_usage.random_bits > 0
        assert cluster.offline_usage.elements_dealt > 0


class TestWorkerFailure:
    def test_missing_worker_fails_cleanly_and_recovers(self):
        federation = create_federation(
            {
                "h1": {"dementia": generate_cohort(CohortSpec("edsd", 80, seed=1))},
                "h2": {"dementia": generate_cohort(CohortSpec("adni", 80, seed=2))},
            },
            FederationConfig(seed=4),
        )
        service = MIPService(federation, aggregation="plain")
        federation.set_worker_down("h2")
        result = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd", "adni"], y=["p_tau"],
        )
        assert result.status.value == "error"
        assert "not available" in result.error
        # the surviving dataset still works
        result = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"],
        )
        assert result.status.value == "success"
        # recovery
        federation.set_worker_down("h2", False)
        result = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd", "adni"], y=["p_tau"],
        )
        assert result.status.value == "success"

    def test_mid_experiment_failure_reported(self):
        federation = create_federation(
            {
                "h1": {"dementia": generate_cohort(CohortSpec("edsd", 80, seed=1))},
                "h2": {"dementia": generate_cohort(CohortSpec("adni", 80, seed=2))},
            },
            FederationConfig(seed=4),
        )
        service = MIPService(federation, aggregation="plain")
        # mark h2 down *after* the catalog refresh by monkeypatching transport
        federation.master.refresh_catalog()
        federation.transport.set_down("h2")
        result = service.run_experiment(
            "linear_regression", "dementia", ["edsd", "adni"],
            y=["lefthippocampus"], x=["agevalue"],
        )
        assert result.status.value == "error"


class TestETLToAnalysis:
    def test_csv_to_experiment(self):
        model = dementia_data_model()
        rows = ["dataset,p_tau,lefthippocampus"]
        rng = np.random.default_rng(0)
        for _ in range(60):
            rows.append(f"csvsite,{rng.normal(60, 10):.2f},{rng.normal(3, 0.4):.3f}")
        rows.append("csvsite,9999,3.0")  # out-of-range pTau
        table = load_csv_text("\n".join(rows) + "\n", model)
        clean, report = harmonize_table(table, model)
        assert report.out_of_range_nulled == {"p_tau": 1}

        federation = create_federation({"csv_hospital": {"dementia": clean}},
                                       FederationConfig(seed=1))
        service = MIPService(federation, aggregation="plain")
        result = service.run_experiment(
            "pearson_correlation", "dementia", ["csvsite"],
            y=["p_tau", "lefthippocampus"],
        )
        assert result.status.value == "success"
        assert result.result["n_observations"] == 60  # nulled row dropped


class TestEveryAlgorithmOnSecurePath:
    """Every registered algorithm completes end-to-end over SMPC."""

    REQUESTS = {
        "descriptive_stats": dict(y=["p_tau"]),
        "histogram": dict(y=["lefthippocampus"], parameters={"n_bins": 10}),
        "linear_regression": dict(y=["lefthippocampus"], x=["agevalue"]),
        "linear_regression_cv": dict(y=["lefthippocampus"], x=["agevalue"],
                                     parameters={"n_splits": 3}),
        "logistic_regression": dict(y=["converted_ad"], x=["p_tau"]),
        "logistic_regression_cv": dict(y=["converted_ad"], x=["p_tau"],
                                       parameters={"n_splits": 3, "max_iterations": 5}),
        "kmeans": dict(y=["ab_42", "p_tau"],
                       parameters={"k": 2, "seed": 1, "iterations_max_number": 5}),
        "anova_oneway": dict(y=["lefthippocampus"], x=["alzheimerbroadcategory"]),
        "anova_twoway": dict(y=["lefthippocampus"],
                             x=["alzheimerbroadcategory", "gender"]),
        "ttest_independent": dict(y=["lefthippocampus"], x=["gender"]),
        "ttest_onesample": dict(y=["p_tau"], parameters={"mu": 50.0}),
        "ttest_paired": dict(y=["lefthippocampus", "righthippocampus"]),
        "pearson_correlation": dict(y=["lefthippocampus", "minimentalstate"]),
        "pca": dict(y=["lefthippocampus", "righthippocampus"]),
        "naive_bayes": dict(y=["alzheimerbroadcategory"], x=["lefthippocampus"]),
        "naive_bayes_cv": dict(y=["alzheimerbroadcategory"], x=["lefthippocampus"],
                               parameters={"n_splits": 3}),
        "cart": dict(y=["alzheimerbroadcategory"], x=["lefthippocampus"],
                     parameters={"max_depth": 2, "n_thresholds": 4}),
        "id3": dict(y=["alzheimerbroadcategory"], x=["gender", "va_etiology"],
                    parameters={"max_depth": 2, "min_gain": 0.0}),
        "kaplan_meier": dict(y=["survival_months", "event_observed"],
                             parameters={"n_bins": 20}),
        "calibration_belt": dict(y=["converted_ad"], x=["predicted_risk"],
                                 parameters={"max_degree": 2}),
        "federated_training": dict(y=["converted_ad"], x=["p_tau"],
                                   parameters={"mode": "sa", "rounds": 2}),
    }

    def test_request_table_covers_registry(self):
        from repro.core.registry import algorithm_registry

        registered = set(algorithm_registry.names()) - {"trimmed_mean"}
        assert registered <= set(self.REQUESTS), (
            f"algorithms missing from the SMPC smoke table: "
            f"{registered - set(self.REQUESTS)}"
        )

    def test_all_algorithms_complete_over_smpc(self):
        federation = create_federation(
            {
                "h1": {"dementia": generate_cohort(CohortSpec("edsd", 70, seed=1))},
                "h2": {"dementia": generate_cohort(CohortSpec("adni", 70, seed=2))},
            },
            FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=6),
        )
        service = MIPService(federation, aggregation="smpc")
        failures = {}
        for algorithm, spec in self.REQUESTS.items():
            result = service.run_experiment(
                algorithm, "dementia", ["edsd", "adni"],
                y=spec.get("y", []), x=spec.get("x", []),
                parameters=spec.get("parameters", {}),
            )
            if result.status.value != "success":
                failures[algorithm] = result.error
        assert not failures, failures


class TestDeploymentScale:
    def test_forty_hospital_federation(self):
        """The paper's deployment scale: 40+ hospitals.  One federation with
        40 workers runs catalogue discovery and a cross-site regression."""
        worker_data = {
            f"hospital_{i:02d}": {
                "dementia": generate_cohort(CohortSpec(f"site{i:02d}", 40, seed=i))
            }
            for i in range(40)
        }
        federation = create_federation(worker_data, FederationConfig(seed=3))
        service = MIPService(federation, aggregation="plain")
        datasets = sorted(service.datasets("dementia"))
        assert len(datasets) == 40
        result = service.run_experiment(
            "linear_regression", "dementia", datasets,
            y=["lefthippocampus"], x=["agevalue"],
        )
        assert result.status.value == "success"
        assert result.result["n_observations"] == 40 * 40
        assert len(result.workers) == 40
        status = service.status()
        assert sum(1 for s in status["workers"].values() if s == "up") == 40


class TestPrivacyEndToEnd:
    def test_raw_rows_never_in_transit(self):
        """Inspect every transport payload: no message may carry more values
        than an aggregate (i.e. anything the size of the raw partition)."""
        federation = create_federation(
            {
                "h1": {"dementia": generate_cohort(CohortSpec("edsd", 120, seed=1))},
                "h2": {"dementia": generate_cohort(CohortSpec("adni", 120, seed=2))},
            },
            FederationConfig(seed=4),
        )
        captured = []
        original_send = federation.transport.send

        def spy(sender, receiver, kind, payload=None):
            response = original_send(sender, receiver, kind, payload)
            captured.append((kind, payload, response))
            return response

        federation.transport.send = spy
        service = MIPService(federation, aggregation="plain")
        result = service.run_experiment(
            "linear_regression", "dementia", ["edsd", "adni"],
            y=["lefthippocampus"], x=["agevalue"],
        )
        assert result.status.value == "success"
        column = federation.workers["h1"].database.get_table("data_dementia").column(
            "lefthippocampus"
        )
        raw_values = set(column.values[~column.nulls].tolist())
        for kind, payload, response in captured:
            blob = repr(payload) + repr(response)
            # no more than a couple of raw values may coincide by chance
            leaked = sum(1 for v in list(raw_values)[:50] if repr(round(v, 6))[:8] in blob)
            assert leaked <= 2, f"possible raw-data leak in {kind} message"

    def test_small_cohort_blocked(self):
        federation = create_federation(
            {"h1": {"dementia": generate_cohort(CohortSpec("edsd", 5, seed=1))}},
            FederationConfig(seed=1, privacy_threshold=10),
        )
        service = MIPService(federation, aggregation="plain")
        result = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"],
        )
        assert result.status.value == "error"
        assert "privacy threshold" in result.error
