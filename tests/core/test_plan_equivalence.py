"""Fan-out equivalence: transport parallelism 1 and 8 give the same bytes.

For EVERY registered algorithm on the plain path (and two under SMPC), the
same seed must produce a byte-identical ``ExperimentResult`` payload and an
identical normalized trace tree whether the transport dispatches to one
worker at a time or to eight at once.

The test names predate the removal of the ``pipeline`` flow mode, which
this suite used to compare against ``eager`` at both widths; they are kept
so the ids stay stable.
"""

import json

import pytest

from repro.api.demo import DEMO_REQUESTS, demo_request
from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.core.registry import algorithm_registry
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation
from repro.observability.trace import normalized_tree, tracer

import repro.algorithms  # noqa: F401

DATASETS = ("edsd", "adni", "ppmi")

_WORKER_SPECS = (
    ("hospital_a", "edsd", 11),
    ("hospital_b", "adni", 22),
    ("hospital_c", "ppmi", 33),
)


def build_worker_data(rows: int = 60):
    return {
        worker: {"dementia": generate_cohort(CohortSpec(code, rows, seed=seed))}
        for worker, code, seed in _WORKER_SPECS
    }


@pytest.fixture(scope="module")
def worker_data60():
    return build_worker_data()


@pytest.fixture()
def tracing():
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    yield tracer
    tracer.reset()
    if not was_enabled:
        tracer.disable()


def run_at(worker_data, algorithm, *, aggregation, parallelism):
    """One fresh federation + engine run; returns (payload, tree)."""
    tracer.reset()
    federation = create_federation(
        worker_data,
        FederationConfig(
            smpc_nodes=3, smpc_scheme="shamir", seed=404, parallelism=parallelism
        ),
    )
    engine = ExperimentEngine(federation, aggregation=aggregation)
    demo = demo_request(algorithm)
    try:
        result = engine.run(
            ExperimentRequest(
                algorithm=algorithm,
                data_model="dementia",
                datasets=DATASETS,
                y=demo["y"],
                x=demo["x"],
                parameters=demo["parameters"],
            )
        )
    finally:
        engine.shutdown()
        federation.shutdown()
    assert result.status.value == "success", f"{algorithm}: {result.error}"
    return json.dumps(result.result, sort_keys=True), normalized_tree()


def assert_width_invariant(worker_data, algorithm, aggregation):
    payload1, tree1 = run_at(
        worker_data, algorithm, aggregation=aggregation, parallelism=1
    )
    payload8, tree8 = run_at(
        worker_data, algorithm, aggregation=aggregation, parallelism=8
    )
    assert payload8 == payload1, f"{algorithm}: result payload differs"
    assert tree8 == tree1, f"{algorithm}: normalized trace differs"


def test_demo_requests_cover_every_algorithm():
    assert sorted(DEMO_REQUESTS) == sorted(algorithm_registry.names())


@pytest.mark.parametrize("algorithm", sorted(DEMO_REQUESTS))
def test_pipeline_matches_eager(worker_data60, tracing, algorithm):
    assert_width_invariant(worker_data60, algorithm, "plain")


@pytest.mark.parametrize("algorithm", ("linear_regression", "pca"))
def test_pipeline_matches_eager_smpc(worker_data60, tracing, algorithm):
    assert_width_invariant(worker_data60, algorithm, "smpc")
