"""Resuming ``federated_training`` through the experiment journal.

Training has no checkpoint format of its own: like every flow, a journaled
run records each read value in a journal ``step`` record, and a restarted
service replays that frontier.  The
replay re-runs the flow's code, so the weights, the history and the privacy
spend of the replayed rounds are rebuilt, not restored.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api.service import MIPService
from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.durability.recovery import DurabilityManager
from repro.federation.controller import FederationConfig, create_federation
from repro.simtest.faults import FaultPlan
from repro.simtest.harness import SimSpec, run_simulation
from repro.simtest.runtime import SimRuntime

#: The pinned corpus scenario: the master dies in round 3 (the last) of a
#: Newton training run, between the update's read and the evaluation's.
TRAINING_CRASH = "seed=3;par=1;jobs=1;faults=crash@20:master;algo=federated_training"
#: The same run killed in round 2, between the update's read and the
#: evaluation's: round 2's evaluation and all of round 3 run live.
ROUND_2_CRASH = "seed=3;par=1;jobs=1;faults=crash@14:master;algo=federated_training"
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

    def make(sim=None):
        federation = create_federation(
            worker_data,
            FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=202),
            sim=sim,
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


def run_alone(federation, request, experiment_id, beside=None):
    """Run ``request`` as ``experiment_id`` in a pool-2 queue, optionally
    beside a job running ``beside`` (submitted first)."""
    service = MIPService(federation, pool_size=2)
    try:
        if beside is not None:
            service.engine.submit(beside, experiment_id=f"beside_{experiment_id}")
        service.engine.submit(request, experiment_id=experiment_id)
        if beside is not None:
            other = service.wait_experiment(f"beside_{experiment_id}")
            assert other.status.value == "success", other.error
        return service.wait_experiment(experiment_id)
    finally:
        service.shutdown()


def resumed_reads(spec):
    """Run a crash scenario; check it resumed byte-identically and return
    how many reads the resume replayed from the journal."""
    report = run_simulation(SimSpec.parse(spec))
    assert report.ok, report.failures()
    lines = report.transcript.splitlines()
    (determinism,) = [l for l in lines if l.startswith("invariant resume-determinism")]
    assert determinism == "invariant resume-determinism ok compared=1"
    (marker,) = [l for l in lines if l.startswith("# restart ")]
    assert "resumed=['sim_job_1']" in marker
    (resumed,) = [
        e for e in report.results[0].audit if e["event"] == "experiment_resumed"
    ]
    return resumed["details"]["checkpoint_reads"]


class TestStopAndResume:
    def test_resume_is_byte_identical_to_uninterrupted(self):
        assert TRAINING_CRASH in CORPUS.read_text().splitlines()
        # Replayed, not re-run: moments, the updates and evaluations of
        # rounds 1 and 2, and round 3's update came from the journal.
        assert resumed_reads(TRAINING_CRASH) == 6

    def test_resume_in_round_2_runs_a_whole_round_live(self):
        # Moments, round 1 and round 2's update were replayed.
        assert resumed_reads(ROUND_2_CRASH) == 4

    def test_checkpoint_deleted_on_completion(self, fresh_federation, tmp_path):
        """The run's reads went into the journal, its terminal record retired
        them, and the journal is all the run leaves on disk."""
        service = MIPService(fresh_federation, state_dir=str(tmp_path))
        outcome = service.engine.run(make_request(rounds=2))
        steps = [
            record for record in service.durability.journal.records()
            if record["kind"] == "step"
        ]
        service.shutdown()
        assert outcome.status.value == "success", outcome.error
        assert steps and all("value" in record for record in steps)
        assert sorted(os.listdir(tmp_path)) == ["journal"]
        reopened = DurabilityManager(str(tmp_path))
        assert reopened.recover().pending == []
        assert reopened.take_resume_reads(outcome.experiment_id) is None
        reopened.close()

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
        resumed = service.wait_experiment("shared")
        service.shutdown()
        assert resumed.status.value == "success", resumed.error
        (marker,) = [e for e in resumed.audit if e["event"] == "experiment_resumed"]
        assert marker["details"]["checkpoint_reads"] == 0
        assert len(resumed.result["history"]) == changed.parameters["rounds"]
        assert resumed.result == run_clean(new_federation(), changed).result

    def test_dp_resume_accounts_completed_rounds(self, new_federation, tmp_path):
        request = make_request(mode="dp", epsilon=8.0, delta=1e-5, rounds=4)
        runtime = SimRuntime(seed=1, parallelism=1, faults=FaultPlan.parse("crash@18:master"))
        crashed = MIPService(new_federation(sim=runtime), state_dir=str(tmp_path))
        crashed.engine.submit(request, experiment_id="train_dp")
        runtime.drive()
        crashed.shutdown(wait=True)
        assert runtime.master_crashed

        service = MIPService(new_federation(), state_dir=str(tmp_path))
        assert service.recovery["resumed"] == ["train_dp"]
        resumed = service.wait_experiment("train_dp")
        service.shutdown()
        assert resumed.status.value == "success", resumed.error
        # Moments, rounds 1 and 2, and round 3's update were replayed.
        (marker,) = [e for e in resumed.audit if e["event"] == "experiment_resumed"]
        assert marker["details"]["checkpoint_reads"] == 6
        # The replayed rounds re-recorded their spend: the resumed run
        # still accounts (and audits) the whole budget, once per round.
        assert resumed.result["epsilon_spent"] == pytest.approx(8.0)
        spends = [e for e in resumed.audit if e["event"] == "privacy_spend"]
        assert len(spends) == 4
        # Local-DP noise is seeded per round, so the resumed model is the
        # uninterrupted one.
        assert resumed.result == run_clean(new_federation(), request).result

    def test_sa_resume_equals_uninterrupted(self, new_federation, tmp_path):
        # Secure-aggregation noise is drawn inside the SMPC protocol.  A
        # resumed run skips the replayed rounds' aggregates, so their noise
        # must not shift the draws of the rounds that run live.
        request = make_request(mode="sa", epsilon=8.0, delta=1e-5, rounds=4)
        runtime = SimRuntime(seed=1, parallelism=1, faults=FaultPlan.parse("crash@18:master"))
        crashed = MIPService(new_federation(sim=runtime), state_dir=str(tmp_path))
        crashed.engine.submit(request, experiment_id="train_sa")
        runtime.drive()
        crashed.shutdown(wait=True)
        assert runtime.master_crashed

        service = MIPService(new_federation(), state_dir=str(tmp_path))
        assert service.recovery["resumed"] == ["train_sa"]
        resumed = service.wait_experiment("train_sa")
        service.shutdown()
        assert resumed.status.value == "success", resumed.error
        (marker,) = [e for e in resumed.audit if e["event"] == "experiment_resumed"]
        assert marker["details"]["checkpoint_reads"] > 0
        assert resumed.result == run_alone(new_federation(), request, "train_sa").result

    def test_training_without_store_unchanged(self, new_federation, tmp_path):
        request = make_request(rounds=3)
        journaled = MIPService(new_federation(), state_dir=str(tmp_path))
        with_store = journaled.engine.run(request)
        journaled.shutdown()
        assert with_store.status.value == "success", with_store.error
        assert with_store.result == run_clean(new_federation(), request).result
        assert with_store.result == run_clean(new_federation(), request).result


class TestSecureAggregationNoise:
    def test_release_independent_of_concurrent_jobs(self, new_federation):
        # One release's noise depends on its own SMPC jobs only: the same
        # request under the same experiment id opens the same values alone
        # and beside another noisy job that shares the cluster.
        request = make_request(mode="sa", epsilon=8.0, delta=1e-5, rounds=2)
        other = make_request(mode="sa", epsilon=4.0, delta=1e-5, rounds=2, seed=5)
        alone = run_alone(new_federation(), request, "sa_fixed")
        beside = run_alone(new_federation(), request, "sa_fixed", beside=other)
        assert alone.status.value == beside.status.value == "success"
        assert beside.result == alone.result
