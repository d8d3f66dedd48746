"""Experiment lifecycle and validation."""

import pytest

import repro.algorithms  # noqa: F401
from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentStatus
from repro.errors import ExperimentNotFoundError


@pytest.fixture()
def engine(federation):
    return ExperimentEngine(federation, aggregation="plain")


def make_request(**overrides):
    base = dict(
        algorithm="ttest_onesample",
        data_model="dementia",
        datasets=("edsd",),
        y=("p_tau",),
        parameters={"mu": 50.0},
    )
    base.update(overrides)
    return ExperimentRequest(**base)


class TestSuccessPath:
    def test_run_and_history(self, engine):
        result = engine.run(make_request())
        assert result.status == ExperimentStatus.SUCCESS
        assert result.workers == ("hospital_a",)
        assert result.elapsed_seconds > 0
        assert engine.get(result.experiment_id) is result
        assert result in engine.history()

    def test_filter_sql_applied(self, engine):
        full = engine.run(make_request())
        filtered = engine.run(make_request(filter_sql="agevalue > 72"))
        assert filtered.status == ExperimentStatus.SUCCESS
        assert filtered.result["n_observations"] < full.result["n_observations"]

    @pytest.mark.parametrize("filter_sql", [
        "1=1) ORDER BY (agevalue",
        "1=1) GROUP BY (p_tau",
        "1=1) GROUP BY (dataset",
        "1=1) OR (1=1",
        "agevalue > 72 --",
        "agevalue > ?",
    ])
    def test_filter_that_escapes_its_parentheses_is_rejected(self, engine, filter_sql):
        result = engine.run(make_request(filter_sql=filter_sql))
        assert result.status == ExperimentStatus.ERROR
        assert "filter_sql must be one SQL expression" in result.error
        assert result.telemetry.messages == 0  # no worker was contacted


class TestValidation:
    def test_unknown_algorithm(self, engine):
        result = engine.run(make_request(algorithm="astrology"))
        assert result.status == ExperimentStatus.ERROR
        assert "no such algorithm" in result.error

    def test_missing_y(self, engine):
        result = engine.run(make_request(y=()))
        assert result.status == ExperimentStatus.ERROR
        assert "requires dependent variables" in result.error

    def test_missing_x_when_required(self, engine):
        result = engine.run(
            make_request(algorithm="linear_regression", y=("p_tau",), x=(), parameters={})
        )
        assert result.status == ExperimentStatus.ERROR
        assert "covariates" in result.error

    def test_unexpected_x_rejected(self, engine):
        result = engine.run(make_request(x=("agevalue",)))
        assert result.status == ExperimentStatus.ERROR

    def test_no_datasets(self, engine):
        result = engine.run(make_request(datasets=()))
        assert result.status == ExperimentStatus.ERROR
        assert "dataset" in result.error

    def test_unknown_dataset(self, engine):
        result = engine.run(make_request(datasets=("atlantis",)))
        assert result.status == ExperimentStatus.ERROR
        assert "not available" in result.error

    def test_bad_parameter(self, engine):
        result = engine.run(
            make_request(algorithm="kmeans", y=("p_tau",), parameters={"k": 0})
        )
        assert result.status == ExperimentStatus.ERROR
        assert "below minimum" in result.error

    def test_wrong_variable_kind(self, engine):
        # gender is nominal; one-sample t-test needs numeric
        result = engine.run(make_request(y=("gender",)))
        assert result.status == ExperimentStatus.ERROR
        assert "nominal" in result.error

    def test_unknown_variable(self, engine):
        result = engine.run(make_request(y=("spleen_volume",)))
        assert result.status == ExperimentStatus.ERROR

    def test_get_unknown_experiment(self, engine):
        with pytest.raises(ExperimentNotFoundError):
            engine.get("ghost")


class TestTelemetry:
    def test_transport_usage_attributed(self, engine):
        result = engine.run(make_request())
        assert result.telemetry.messages > 0
        assert result.telemetry.bytes_sent > 0
        assert result.telemetry.simulated_network_seconds > 0

    def test_smpc_usage_attributed_on_secure_path(self, fresh_federation):
        secure_engine = ExperimentEngine(fresh_federation, aggregation="smpc")
        result = secure_engine.run(make_request())
        assert result.status == ExperimentStatus.SUCCESS
        assert result.telemetry.smpc_rounds > 0
        assert result.telemetry.smpc_elements > 0

    def test_plain_path_uses_no_smpc(self, fresh_federation):
        plain_engine = ExperimentEngine(fresh_federation, aggregation="plain")
        result = plain_engine.run(make_request())
        assert result.telemetry.smpc_rounds == 0


class TestCleanup:
    def test_worker_tables_cleaned(self, federation):
        engine = ExperimentEngine(federation, aggregation="plain")
        worker = federation.workers["hospital_a"]
        before = set(worker.database.table_names())
        result = engine.run(make_request())
        assert result.status == ExperimentStatus.SUCCESS
        after = set(worker.database.table_names())
        assert after == before


class TestConcurrentTelemetry:
    """Acceptance criterion: two experiments running concurrently must each
    report exactly the telemetry they report when run alone."""

    @staticmethod
    def _build_federation():
        from repro.federation.controller import FederationConfig, create_federation
        from tests.conftest import small_worker_data

        return create_federation(
            small_worker_data(),
            FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=77),
        )

    @staticmethod
    def _requests():
        return [
            (
                "exp_solo_a",
                make_request(y=("lefthippocampus", "righthippocampus"),
                             algorithm="pearson_correlation",
                             datasets=("edsd", "adni", "ppmi"),
                             parameters={}),
            ),
            (
                "exp_solo_b",
                make_request(y=("lefthippocampus",), x=("agevalue",),
                             algorithm="linear_regression",
                             datasets=("edsd", "adni", "ppmi"),
                             parameters={}),
            ),
        ]

    def test_concurrent_runs_match_solo_telemetry(self):
        # Solo baselines, each on its own identically-seeded federation.
        solo = {}
        for experiment_id, request in self._requests():
            engine = ExperimentEngine(self._build_federation())
            try:
                engine.submit(request, experiment_id=experiment_id)
                result = engine.wait(experiment_id, timeout=120)
                assert result.status is ExperimentStatus.SUCCESS
                solo[experiment_id] = result.telemetry
            finally:
                engine.shutdown(wait=False)

        # The same two requests overlapping in one federation at pool 2.
        engine = ExperimentEngine(self._build_federation(), max_concurrent=2)
        try:
            for experiment_id, request in self._requests():
                engine.submit(request, experiment_id=experiment_id)
            for experiment_id, _ in self._requests():
                result = engine.wait(experiment_id, timeout=120)
                assert result.status is ExperimentStatus.SUCCESS
                assert result.telemetry == solo[experiment_id], (
                    f"{experiment_id}: concurrent telemetry leaked across jobs"
                )
        finally:
            engine.shutdown(wait=False)
