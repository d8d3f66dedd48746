"""Resuming ``federated_training`` through the experiment journal.

Training has no checkpoint format of its own: like every flow, a journaled
run checkpoints its read frontier, and a restarted service replays it.  The
replay re-runs the flow's code, so the weights, the history and the privacy
spend of the replayed rounds are rebuilt, not restored.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.api.service import MIPService
from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.durability.recovery import DurabilityManager
from repro.federation.controller import FederationConfig, create_federation
from repro.simtest.faults import FaultPlan
from repro.simtest.harness import SimSpec, run_simulation
from repro.simtest.runtime import SimRuntime

#: The pinned corpus scenario: the master dies in round 2 of a Newton
#: training run, between the update's read and the evaluation's.
TRAINING_CRASH = "seed=3;par=1;jobs=1;faults=crash@20:master;algo=federated_training"
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "simtest" / "corpus.txt"


def make_request(**parameters):
    base = dict(mode="newton", rounds=5, evaluate_every=1, seed=3)
    base.update(parameters)
    return ExperimentRequest(
        algorithm="federated_training",
        data_model="dementia",
        datasets=("edsd", "adni", "ppmi"),
        y=("converted_ad",),
        x=("lefthippocampus", "p_tau"),
        parameters=base,
    )


@pytest.fixture()
def new_federation(worker_data):
    """A factory of fresh federations (one per service life), shut down
    at teardown."""
    made = []

    def make():
        federation = create_federation(
            worker_data, FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=202)
        )
        made.append(federation)
        return federation

    yield make
    for federation in made:
        federation.shutdown()


def run_clean(federation, request):
    engine = ExperimentEngine(federation)
    try:
        return engine.run(request)
    finally:
        engine.shutdown()


class TestStopAndResume:
    def test_resume_is_byte_identical_to_uninterrupted(self):
        assert TRAINING_CRASH in CORPUS.read_text().splitlines()
        report = run_simulation(SimSpec.parse(TRAINING_CRASH))
        assert report.ok, report.failures()
        lines = report.transcript.splitlines()
        (determinism,) = [l for l in lines if l.startswith("invariant resume-determinism")]
        assert determinism == "invariant resume-determinism ok compared=1"
        (marker,) = [l for l in lines if l.startswith("# restart ")]
        assert "resumed=['sim_job_1']" in marker
        # Replayed, not re-run: moments, round 1's update and evaluation,
        # and round 2's update came from the checkpoint.
        (resumed,) = [
            e for e in report.results[0].audit if e["event"] == "experiment_resumed"
        ]
        assert resumed["details"]["checkpoint_reads"] == 4

    def test_checkpoint_deleted_on_completion(self, fresh_federation, tmp_path):
        service = MIPService(fresh_federation, state_dir=str(tmp_path))
        outcome = service.engine.run(make_request(rounds=2))
        store = service.durability.checkpoints
        service.shutdown()
        assert outcome.status.value == "success", outcome.error
        assert store.stats.saves_total > 0
        assert store.list_ids() == []

    def test_fingerprint_mismatch_restarts_from_scratch(self, new_federation, tmp_path):
        # A frontier recorded under one request, then the same job id
        # journaled again with a changed request: the stale (and bogus)
        # reads must not be replayed.
        stale = DurabilityManager(str(tmp_path))
        stale.record_submit("shared", make_request(), 0)
        stale.record_read(
            "shared", "SecureAggregateNode:n2",
            {"n": 1.0, "sums": [1.0, 99.0, 99.0], "sumsq": [1.0, 1e4, 1e4]},
        )
        changed = make_request(learning_rate=0.9)
        stale.record_submit("shared", changed, 0)
        stale.close()

        service = MIPService(new_federation(), state_dir=str(tmp_path))
        assert service.recovery["resumed"] == ["shared"]
        assert service.durability.checkpoint_mismatches == 1
        resumed = service.wait_experiment("shared")
        service.shutdown()
        assert resumed.status.value == "success", resumed.error
        assert len(resumed.result["history"]) == changed.parameters["rounds"]
        assert resumed.result == run_clean(new_federation(), changed).result

    def test_dp_resume_accounts_completed_rounds(self, new_federation, tmp_path):
        request = make_request(mode="dp", epsilon=8.0, delta=1e-5, rounds=4)
        runtime = SimRuntime(seed=1, parallelism=1, faults=FaultPlan.parse("crash@18:master"))
        with runtime.activate():
            crashed = MIPService(new_federation(), state_dir=str(tmp_path))
            crashed.engine.submit(request, experiment_id="train_dp")
            runtime.drive()
            crashed.shutdown(wait=True)
        assert runtime.master_crashed

        service = MIPService(new_federation(), state_dir=str(tmp_path))
        assert service.recovery["resumed"] == ["train_dp"]
        resumed = service.wait_experiment("train_dp")
        service.shutdown()
        assert resumed.status.value == "success", resumed.error
        (marker,) = [e for e in resumed.audit if e["event"] == "experiment_resumed"]
        assert marker["details"]["checkpoint_reads"] == 4
        # The replayed rounds re-recorded their spend: the resumed run
        # still accounts (and audits) the whole budget, once per round.
        assert resumed.result["epsilon_spent"] == pytest.approx(8.0)
        spends = [e for e in resumed.audit if e["event"] == "privacy_spend"]
        assert len(spends) == 4
        # Local-DP noise is seeded per round, so the resumed model is the
        # uninterrupted one.
        assert resumed.result == run_clean(new_federation(), request).result

    def test_training_without_store_unchanged(self, new_federation, tmp_path):
        request = make_request(rounds=3)
        journaled = MIPService(new_federation(), state_dir=str(tmp_path))
        with_store = journaled.engine.run(request)
        journaled.shutdown()
        assert with_store.status.value == "success", with_store.error
        assert with_store.result == run_clean(new_federation(), request).result
        assert with_store.result == run_clean(new_federation(), request).result
