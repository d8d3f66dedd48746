"""The MIPService facade (the dashboard's backend surface)."""

import pytest

from repro.api.service import MIPService
from repro.errors import CatalogError


@pytest.fixture(scope="module")
def service(federation):
    return MIPService(federation, aggregation="plain")


class TestCatalogue:
    def test_data_models(self, service):
        assert service.data_models() == ["dementia"]

    def test_datasets_with_holders(self, service):
        datasets = service.datasets("dementia")
        assert datasets == {
            "edsd": "hospital_a", "adni": "hospital_b", "ppmi": "hospital_c",
        }

    def test_unknown_model(self, service):
        with pytest.raises(CatalogError):
            service.datasets("genomics")

    def test_variables_listing(self, service):
        variables = {v["code"]: v for v in service.variables("dementia")}
        assert variables["p_tau"]["kind"] == "numeric"
        assert variables["p_tau"]["unit"] == "pg/mL"
        assert variables["gender"]["enumerations"] == ["F", "M"]


class TestAlgorithmsPanel:
    def test_all_registered_listed(self, service):
        names = [a["name"] for a in service.algorithms()]
        assert "kmeans" in names
        assert "linear_regression" in names
        assert len(names) >= 15

    def test_parameter_specs_exposed(self, service):
        kmeans = next(a for a in service.algorithms() if a["name"] == "kmeans")
        params = {p["name"]: p for p in kmeans["parameters"]}
        assert params["k"]["required"] is True
        assert params["k"]["min"] == 1
        assert params["e"]["default"] == pytest.approx(1e-4)


class TestExperimentLifecycle:
    def test_run_poll_history(self, service):
        result = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"],
            parameters={"mu": 50.0}, name="demo",
        )
        assert result.status.value == "success"
        assert service.experiment(result.experiment_id) is result
        assert result in service.experiments()
        assert result.request.name == "demo"

    def test_failed_experiment_recorded(self, service):
        result = service.run_experiment(
            "kmeans", "dementia", ["edsd"], y=["p_tau"], parameters={},
        )
        assert result.status.value == "error"  # k is required
        assert "required" in result.error
        assert service.experiment(result.experiment_id).status.value == "error"

    def test_status_endpoint(self, service):
        status = service.status()
        assert set(status["workers"]) == {"hospital_a", "hospital_b", "hospital_c"}
        assert all(state == "up" for state in status["workers"].values())
        assert status["data_models"] == {"dementia": ["adni", "edsd", "ppmi"]}
        assert status["caseload_rows"]["dementia"] == 450  # 3 x 150 fixture rows
        assert status["smpc"]["scheme"] == "shamir"
        assert status["experiments"]["total"] >= 1

    def test_status_reflects_down_worker(self, fresh_federation):
        from repro.api.service import MIPService

        service = MIPService(fresh_federation, aggregation="plain")
        fresh_federation.set_worker_down("hospital_b")
        status = service.status()
        assert status["workers"]["hospital_b"] == "down"
        assert "adni" not in status["data_models"]["dementia"]

    def test_result_level_noise(self, federation):
        """The service can inject DP noise into every released aggregate.

        The mean is ``sum / int(n)`` and both sums get one N(0, 5²) draw.
        The bound is the widest the mean can move while neither draw leaves
        ±z·5, with z set so that this test fails on a correct release with
        probability at most ``false_failure_rate`` (two two-sided tails).
        Fixed experiment ids make the draw one fixed value: noise is seeded
        by (cluster seed, SMPC job id, party).
        """
        import itertools

        import scipy.stats

        from repro.core.experiment import ExperimentRequest
        from repro.smpc.cluster import NoiseSpec

        noise = NoiseSpec("gaussian", 5.0)
        false_failure_rate = 1e-6
        request = ExperimentRequest(
            algorithm="ttest_onesample", data_model="dementia",
            datasets=("edsd",), y=("p_tau",),
        )
        outcomes = {}
        for label, service in (
            ("clean", MIPService(federation, aggregation="smpc")),
            ("noisy", MIPService(federation, aggregation="smpc", noise=noise)),
        ):
            try:
                experiment_id = service.engine.submit(
                    request, experiment_id=f"result-level-noise-{label}"
                )
                outcomes[label] = service.engine.wait(experiment_id)
            finally:
                service.shutdown()
        clean, noisy = outcomes["clean"], outcomes["noisy"]
        assert clean.status.value == noisy.status.value == "success"

        n = clean.result["n_observations"]
        total = clean.result["mean"] * n
        reach = scipy.stats.norm.isf(false_failure_rate / 4) * noise.scale
        bound = max(
            abs((total + e_sum) / noisy_n - clean.result["mean"])
            for e_sum, noisy_n in itertools.product(
                (-reach, reach), (n - reach - 1, n + reach)
            )
        )
        assert noisy.result["mean"] != clean.result["mean"]
        assert abs(noisy.result["mean"] - clean.result["mean"]) < bound

    def test_plain_aggregation_refuses_noise(self, federation):
        """Noise is added inside the SMPC protocol; a plain run cannot add
        it, so it fails instead of releasing exact coefficients."""
        from repro.core.experiment import ExperimentEngine, ExperimentRequest
        from repro.smpc.cluster import NoiseSpec

        engine = ExperimentEngine(
            federation, aggregation="plain", noise=NoiseSpec("gaussian", 500.0)
        )
        outcome = engine.run(
            ExperimentRequest(
                algorithm="linear_regression", data_model="dementia",
                datasets=("edsd", "adni", "ppmi"),
                y=("lefthippocampus",), x=("agevalue",),
            )
        )
        engine.shutdown()
        assert outcome.status.value == "error"
        assert outcome.error.startswith("SpecificationError")

    def test_kmeans_like_figure_3(self, service):
        """The Figure 3 flow: pick k-means, set k, run, read clusters."""
        result = service.run_experiment(
            "kmeans", "dementia", ["edsd", "adni", "ppmi"],
            y=["ab_42", "p_tau", "leftententorhinalarea"],
            parameters={"k": 3, "e": 0.01, "iterations_max_number": 50, "seed": 1},
        )
        assert result.status.value == "success"
        assert len(result.result["centroids"]) == 3


class TestAsyncSurface:
    def test_submit_wait_poll(self, fresh_federation):
        service = MIPService(fresh_federation, aggregation="plain", pool_size=2)
        job_id = service.submit_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"],
            parameters={"mu": 50.0},
        )
        assert isinstance(job_id, str) and job_id.startswith("exp_")
        result = service.wait_experiment(job_id, timeout=120)
        assert result.status.value == "success"
        assert service.experiment(job_id) is result
        jobs = service.jobs()
        assert jobs and jobs[0]["job_id"] == job_id
        assert jobs[0]["state"] == "success"

    def test_training_jobs_share_the_queue(self, fresh_federation):
        """Two training runs in flight at once: each result audits only its
        own rounds' privacy spend."""
        service = MIPService(fresh_federation, pool_size=2)
        common = dict(y=["converted_ad"], x=["p_tau"])
        private = service.submit_experiment(
            "federated_training", "dementia", ["edsd", "adni"], **common,
            parameters={"mode": "dp", "rounds": 3, "epsilon": 3.0},
        )
        newton = service.submit_experiment(
            "federated_training", "dementia", ["edsd", "adni"], **common,
            parameters={"mode": "newton", "rounds": 3},
        )
        spends = {}
        for job_id in (private, newton):
            result = service.wait_experiment(job_id, timeout=120)
            assert result.status.value == "success", result.error
            spends[job_id] = [e for e in result.audit if e["event"] == "privacy_spend"]
        service.shutdown()
        assert len(spends[private]) == 3
        assert spends[newton] == []

    def test_cancel_experiment_unknown_id(self, fresh_federation):
        from repro.errors import ExperimentNotFoundError

        service = MIPService(fresh_federation)
        with pytest.raises(ExperimentNotFoundError):
            service.cancel_experiment("ghost")

    def test_run_experiment_is_submit_plus_wait(self, fresh_federation):
        service = MIPService(fresh_federation, aggregation="plain")
        result = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"],
            parameters={"mu": 50.0},
        )
        assert result.status.value == "success"
        assert service.engine.queue.stats()["submitted_total"] == 1


class TestQueueMetrics:
    def test_registry_includes_queue_gauges(self, fresh_federation):
        service = MIPService(fresh_federation, aggregation="plain", pool_size=3)
        service.run_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"],
            parameters={"mu": 50.0},
        )
        snapshot = service.metrics_snapshot()
        assert snapshot["repro_queue_pool_size"] == 3.0
        assert snapshot["repro_queue_submitted_total"] == 1.0
        assert snapshot["repro_queue_succeeded_total"] == 1.0
        assert snapshot["repro_queue_depth"] == 0.0
        assert snapshot["repro_queue_running"] == 0.0
        assert "repro_queue_depth" in service.render_metrics()

    def test_status_includes_queue(self, fresh_federation):
        service = MIPService(fresh_federation, aggregation="plain")
        status = service.status()
        assert status["queue"]["pool_size"] == 1
        assert status["queue"]["depth"] == 0


class TestStatusCaseloadGuard:
    def test_status_survives_missing_model_table(self, fresh_federation):
        """A worker advertising a model without a materialized table must
        not crash the status endpoint (it contributes zero rows)."""
        service = MIPService(fresh_federation, aggregation="plain")
        worker = fresh_federation.workers["hospital_b"]
        # Simulate deferred loading: the catalog entry exists, the table
        # does not.
        worker.database.drop_table("data_dementia", if_exists=True)
        status = service.status()
        assert status["caseload_rows"]["dementia"] >= 0
        assert status["workers"]["hospital_b"] == "up"
