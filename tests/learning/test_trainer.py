"""The ``federated_training`` experiment: none / DP / SA / Newton paths."""

import numpy as np
import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.core.runner import ExperimentRunner
from repro.errors import AlgorithmError, PrivacyError, SpecificationError
from repro.federation.controller import FederationConfig, create_federation


def make_request(y=("converted_ad",), x=("lefthippocampus", "p_tau"), **parameters):
    base = dict(rounds=8, learning_rate=0.8, clip_norm=1.0, evaluate_every=4, seed=3)
    base.update(parameters)
    return ExperimentRequest(
        algorithm="federated_training",
        data_model="dementia",
        datasets=("edsd", "adni", "ppmi"),
        y=tuple(y),
        x=tuple(x),
        parameters=base,
    )


@pytest.fixture()
def train(fresh_federation):
    """Run one training request to success; returns its result dict."""
    engine = ExperimentEngine(fresh_federation)

    def run(**overrides):
        outcome = engine.run(make_request(**overrides))
        assert outcome.status.value == "success", outcome.error
        return outcome.result

    yield run
    engine.shutdown()


def rejects(federation, error, aggregation="smpc", **overrides):
    """The request fails with ``error`` before its flow records a step."""
    info = {}
    with pytest.raises(error):
        ExperimentRunner(federation, aggregation=aggregation).execute(
            make_request(**overrides), "exp_rejected", info=info
        )
    assert len(info.get("plan", ())) == 0


class TestConfigValidation:
    def test_unknown_mode(self, fresh_federation):
        rejects(fresh_federation, SpecificationError, mode="quantum")

    def test_rounds_positive(self, fresh_federation):
        rejects(fresh_federation, SpecificationError, rounds=0)

    def test_epsilon_positive_when_private(self, fresh_federation):
        rejects(fresh_federation, PrivacyError, mode="dp", epsilon=0.0)


class TestCleanTraining:
    def test_loss_decreases(self, train):
        result = train(mode="none", rounds=12, evaluate_every=3)
        losses = [h["loss"] for h in result["history"]]
        assert losses[-1] < losses[0]
        assert result["final_accuracy"] > 0.6
        assert result["epsilon_spent"] == 0.0
        assert result["mode"] == "none"

    def test_design_names(self, train):
        result = train(mode="none", rounds=2, evaluate_every=2)
        assert result["design_names"] == ["intercept", "lefthippocampus", "p_tau"]
        assert len(result["weights"]) == 3

    def test_nominal_covariate_expanded(self, train):
        result = train(
            mode="none", rounds=2, evaluate_every=2, x=("lefthippocampus", "gender")
        )
        assert result["design_names"] == ["intercept", "lefthippocampus", "gender[M]"]


class TestPrivateTraining:
    def test_dp_budget_accounted(self, train):
        result = train(mode="dp", epsilon=8.0, delta=1e-5)
        assert result["epsilon_spent"] == pytest.approx(8.0)
        assert result["delta_spent"] == pytest.approx(1e-5)
        assert result["mode"] == "dp"

    def test_sa_budget_accounted(self, train):
        result = train(mode="sa", epsilon=8.0)
        assert result["epsilon_spent"] == pytest.approx(8.0)

    def test_noise_hurts_at_tiny_epsilon(self, train):
        clean = train(mode="none", rounds=10, evaluate_every=5)
        noisy = train(mode="dp", epsilon=0.05, rounds=10, evaluate_every=5)
        assert noisy["final_loss"] > clean["final_loss"]

    def test_dp_noise_differs_per_seed(self, train):
        a = train(mode="dp", epsilon=5.0, seed=1, rounds=3, evaluate_every=3)
        b = train(mode="dp", epsilon=5.0, seed=2, rounds=3, evaluate_every=3)
        assert not np.allclose(a["weights"], b["weights"])

    def test_sa_uses_smpc_cluster(self, fresh_federation, train):
        cluster = fresh_federation.smpc_cluster
        before = cluster.communication.rounds
        train(mode="sa", epsilon=5.0, rounds=2, evaluate_every=2)
        assert cluster.communication.rounds > before

    def test_sa_without_smpc_is_refused(self, worker_data):
        """Plain aggregation has nowhere to add SA's noise: the run fails
        before its first step instead of releasing noiseless updates while
        accounting the budget as spent."""
        federation = create_federation(
            worker_data, FederationConfig(smpc_nodes=0, seed=202)
        )
        try:
            rejects(
                federation, SpecificationError, aggregation="plain",
                mode="sa", epsilon=0.01,
            )
        finally:
            federation.shutdown()

    @pytest.mark.parametrize("mode", ["dp", "sa"])
    def test_privacy_spend_is_in_the_audit_trail(self, fresh_federation, mode):
        engine = ExperimentEngine(fresh_federation)
        outcome = engine.run(make_request(mode=mode, epsilon=6.0, rounds=3))
        engine.shutdown()
        assert outcome.status.value == "success", outcome.error
        spends = [e for e in outcome.audit if e["event"] == "privacy_spend"]
        assert len(spends) == 3
        assert {e["job_id"] for e in spends} == {outcome.experiment_id}
        assert sum(e["details"]["epsilon"] for e in spends) == pytest.approx(6.0)


class TestLinearModelKind:
    def test_linear_regression_by_gradient_descent(self, train):
        """model_kind='linear' minimizes MSE toward the OLS solution on
        standardized features."""
        result = train(
            mode="none", model_kind="linear",
            y=("minimentalstate",), x=("lefthippocampus", "agevalue"),
            rounds=60, learning_rate=0.05, clip_norm=100.0, evaluate_every=30,
        )
        losses = [h["loss"] for h in result["history"]]
        assert losses[-1] < losses[0]
        # on standardized covariates, MSE should approach the OLS residual MSE
        assert losses[-1] < 5.0

    def test_linear_accuracy_reported_as_zero(self, train):
        result = train(
            mode="none", model_kind="linear",
            y=("minimentalstate",), x=("lefthippocampus",),
            rounds=3, evaluate_every=3,
        )
        assert result["final_accuracy"] == 0.0  # not defined for regression

    def test_unknown_model_kind_rejected(self, fresh_federation):
        rejects(fresh_federation, SpecificationError, model_kind="quantum")

    def test_newton_requires_logistic(self, fresh_federation):
        rejects(
            fresh_federation, AlgorithmError, mode="newton", model_kind="linear",
            y=("minimentalstate",),
        )

    def test_dp_linear_training_runs(self, train):
        result = train(
            mode="dp", model_kind="linear", epsilon=50.0,
            y=("minimentalstate",), x=("lefthippocampus",),
            rounds=5, evaluate_every=5,
        )
        assert result["epsilon_spent"] == pytest.approx(50.0)


class TestNewtonMode:
    def test_newton_converges_in_few_rounds(self, train):
        """The second-order path reaches the SGD path's accuracy in a
        fraction of the rounds."""
        newton = train(mode="newton", rounds=4, evaluate_every=4)
        sgd = train(mode="none", rounds=4, evaluate_every=4)
        assert newton["final_loss"] <= sgd["final_loss"]
        assert newton["final_accuracy"] >= 0.6

    def test_newton_matches_federated_logistic_algorithm(self, fresh_federation, train):
        """Newton training on unstandardized features converges to the same
        MLE the logistic_regression algorithm finds."""
        result = train(mode="newton", rounds=12, evaluate_every=12, standardize=False)
        engine = ExperimentEngine(fresh_federation, aggregation="plain")
        reference = engine.run(
            ExperimentRequest(
                algorithm="logistic_regression", data_model="dementia",
                datasets=("edsd", "adni", "ppmi"),
                y=("converted_ad",), x=("lefthippocampus", "p_tau"),
            )
        )
        engine.shutdown()
        assert reference.status.value == "success"
        assert np.allclose(result["weights"], reference.result["coefficients"], atol=1e-4)

    def test_newton_spends_no_privacy_budget(self, train):
        result = train(mode="newton", rounds=3, evaluate_every=3)
        assert result["epsilon_spent"] == 0.0


class TestEvaluation:
    def test_history_cadence(self, train):
        result = train(mode="none", rounds=9, evaluate_every=3)
        assert [h["round"] for h in result["history"]] == [3, 6, 9]

    def test_final_round_always_evaluated(self, train):
        result = train(mode="none", rounds=5, evaluate_every=4)
        assert result["history"][-1]["round"] == 5
