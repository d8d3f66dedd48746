"""Golden flow plans: the recorded DAG of every algorithm, diffed in CI.

Each registered algorithm's demo request is executed once (eager, no cache,
pinned cohorts and seed) and its plan's canonical JSON is compared against
the committed golden under ``tests/golden_plans/``.  An accidental change
to an algorithm's flow shape — an extra step, a lost dependency edge, a
different aggregation path — shows up as a golden diff instead of slipping
through silently.

Regenerate after an *intentional* flow change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/core/test_golden_plans.py
"""

import itertools
import json
import os
import pathlib

import pytest

from repro.api.demo import DEMO_REQUESTS, demo_request
from repro.core.experiment import ExperimentRequest
from repro.core.registry import algorithm_registry
from repro.core.runner import ExperimentRunner
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation
from repro.federation.policy import FailurePolicy

import repro.algorithms  # noqa: F401

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden_plans"
DATASETS = ("edsd", "adni", "ppmi")

_seq = itertools.count()


def golden_worker_data():
    """Three hospitals, 60 pinned rows each."""
    return {
        "hospital_a": {"dementia": generate_cohort(CohortSpec("edsd", 60, seed=11))},
        "hospital_b": {"dementia": generate_cohort(CohortSpec("adni", 60, seed=22))},
        "hospital_c": {"dementia": generate_cohort(CohortSpec("ppmi", 60, seed=33))},
    }


@pytest.fixture(scope="module")
def golden_federation():
    federation = create_federation(
        golden_worker_data(),
        FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=0),
    )
    yield federation
    federation.shutdown()


def record_plan(federation, algorithm: str) -> str:
    demo = demo_request(algorithm)
    request = ExperimentRequest(
        algorithm=algorithm,
        data_model="dementia",
        datasets=DATASETS,
        y=demo["y"],
        x=demo["x"],
        parameters=demo["parameters"],
    )
    runner = ExperimentRunner(federation, aggregation="plain")
    info = {}
    runner.execute(request, f"plan{next(_seq)}", info=info)
    return json.dumps(info["plan"].to_json(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("algorithm", sorted(DEMO_REQUESTS))
def test_golden_plan(golden_federation, algorithm):
    rendered = record_plan(golden_federation, algorithm)
    path = GOLDEN_DIR / f"{algorithm}.json"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
        return
    assert path.exists(), (
        f"no golden plan for {algorithm!r}; regenerate with "
        "REPRO_UPDATE_GOLDENS=1"
    )
    assert path.read_text() == rendered, (
        f"flow plan for {algorithm!r} changed; if intentional, regenerate "
        "with REPRO_UPDATE_GOLDENS=1"
    )


def test_no_stale_goldens():
    """Every committed golden corresponds to a registered algorithm."""
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert committed <= set(DEMO_REQUESTS), (
        f"stale golden plans: {sorted(committed - set(DEMO_REQUESTS))}"
    )


def test_plan_recording_is_deterministic(golden_federation):
    """Two recordings of the same flow render byte-identically."""
    first = record_plan(golden_federation, "pca")
    second = record_plan(golden_federation, "pca")
    assert first == second


def test_degrade_policy_records_the_same_plan(golden_federation):
    """Plan edges are data edges whatever the failure policy: a degrading
    federation records the plan the default one does (logistic regression's
    later local steps take an earlier read as a literal, so an edge from
    each node to its predecessor would show here)."""
    degrading = create_federation(
        golden_worker_data(),
        FederationConfig(
            smpc_nodes=3,
            smpc_scheme="shamir",
            seed=0,
            failure_policy=FailurePolicy(on_worker_loss="degrade"),
        ),
    )
    try:
        rendered = record_plan(degrading, "logistic_regression")
    finally:
        degrading.shutdown()
    assert rendered == record_plan(golden_federation, "logistic_regression")


def test_every_global_step_aggregates_something():
    """No registered flow has a global step whose arguments are all literals.

    Such a step only re-encodes a value the master already holds, and its
    broadcast ships it back; the next local step takes that value as a
    ``literal()`` argument instead.  Checked on the committed goldens, which
    ``test_golden_plan`` pins to each algorithm's recorded plan.
    """
    publishers = set()
    for algorithm in algorithm_registry.names():
        plan = json.loads((GOLDEN_DIR / f"{algorithm}.json").read_text())
        for node in plan["nodes"]:
            if node["kind"] == "global_step" and not any(
                "ref" in arg for arg in node.get("args", {}).values()
            ):
                publishers.add(node["udf"])
    assert not publishers, f"global steps that aggregate nothing: {sorted(publishers)}"
