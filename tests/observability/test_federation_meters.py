"""Every meter a federation reports is its own: two federations in one
process never see each other's privacy spend, plan-cache work or traffic."""

import pytest

from repro.api.service import MIPService
from repro.core.experiment import ExperimentRequest
from repro.federation.controller import FederationConfig, create_federation
from tests.conftest import small_worker_data

DATASETS = ("edsd", "adni", "ppmi")

#: Metrics read off the wall clock (queue wait and experiment duration):
#: the only ones two identical runs may disagree on.
WALL_TIME = ("repro_queue_wait_seconds_total", "repro_experiment_duration_")


def dp_training(**parameters):
    return ExperimentRequest(
        algorithm="federated_training",
        data_model="dementia",
        datasets=DATASETS,
        y=("converted_ad",),
        x=("lefthippocampus", "p_tau"),
        parameters={"mode": "dp", "rounds": 3, "epsilon": 2.0, "delta": 1e-5,
                    "evaluate_every": 3, "seed": 3, **parameters},
    )


def run(service, request, experiment_id=None):
    """Run ``request`` to success; a fixed ``experiment_id`` fixes its noise."""
    engine = service.engine
    result = engine.wait(engine.submit(request, experiment_id=experiment_id))
    assert result.status.value == "success", result.error
    return result


def privacy_counters(service):
    return {
        name: value
        for name, value in service.metrics_snapshot().items()
        if name.startswith("repro_privacy_")
    }


@pytest.fixture()
def services():
    """A factory of services, each on its own federation built alike."""
    made = []

    def build():
        federation = create_federation(
            small_worker_data(), FederationConfig(smpc_nodes=3, seed=202)
        )
        service = MIPService(federation, aggregation="plain")
        made.append(service)
        return service

    yield build
    for service in made:
        service.shutdown()
        service.federation.shutdown()


def test_dp_training_counters_match_its_result(services):
    service = services()
    assert privacy_counters(service) == {
        "repro_privacy_epsilon_spent_total": 0.0,
        "repro_privacy_delta_spent_total": 0.0,
        "repro_privacy_releases_total": 0.0,
    }
    result = run(service, dp_training(rounds=4))
    assert privacy_counters(service) == {
        "repro_privacy_epsilon_spent_total": result.result["epsilon_spent"],
        "repro_privacy_delta_spent_total": result.result["delta_spent"],
        "repro_privacy_releases_total": 4.0,
    }


def test_a_federation_reports_only_its_own_work(services):
    """C runs R; A runs a DP training and a plain mix; B, built like C, runs
    R.  B's metrics, less wall-time ones, equal C's, so none of A's
    privacy spend, plan-cache work or messages reached them."""
    request = dp_training()

    def run_r(service):
        run(service, request, experiment_id="r1")
        return {
            name: value
            for name, value in service.metrics_snapshot().items()
            if not name.startswith(WALL_TIME)
        }

    c = run_r(services())
    a = services()
    spent = run(a, dp_training(rounds=5, epsilon=3.0), experiment_id="a1")
    a.run_experiment("ttest_onesample", "dementia", DATASETS, y=["p_tau"])
    a.run_experiment(
        "kmeans", "dementia", DATASETS, y=["ab_42", "p_tau"],
        parameters={"k": 2, "seed": 9},
    )
    b_service = services()
    b = run_r(b_service)

    assert b == c
    assert privacy_counters(b_service) == {
        "repro_privacy_epsilon_spent_total": 2.0,
        "repro_privacy_delta_spent_total": 1e-5,
        "repro_privacy_releases_total": 3.0,
    }
    assert privacy_counters(a)["repro_privacy_epsilon_spent_total"] == (
        spent.result["epsilon_spent"]
    )
