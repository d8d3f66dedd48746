"""Journal replay, checkpoint resume, and full service restarts."""

from __future__ import annotations

import pytest

from repro.core.experiment import (
    ExperimentRequest,
    ExperimentResult,
    ExperimentStatus,
)
from repro.durability.recovery import DurabilityManager


def _request(**overrides) -> ExperimentRequest:
    fields = dict(
        algorithm="descriptive_stats",
        data_model="dementia",
        datasets=("edsd",),
        y=("lefthippocampus",),
    )
    fields.update(overrides)
    return ExperimentRequest(**fields)


def _result(job_id: str, request: ExperimentRequest) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=job_id,
        request=request,
        status=ExperimentStatus.SUCCESS,
        result={"n": 42},
    )


class TestReplay:
    def test_terminal_job_is_restored(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        request = _request()
        manager.record_submit("j1", request, priority=0)
        manager.record_dispatch("j1")
        manager.record_terminal("j1", _result("j1", request))
        manager.close()
        recovered = DurabilityManager(str(tmp_path))
        report = recovered.recover()
        assert sorted(report.completed) == ["j1"]
        assert report.completed["j1"].result == {"n": 42}
        assert report.pending == []
        recovered.close()

    def test_interrupted_job_is_reenqueued_in_order(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        manager.record_submit("j2", _request(name="second"), priority=5)
        manager.record_dispatch("j1")
        manager.close()
        report = DurabilityManager(str(tmp_path)).recover()
        assert report.completed == {}
        assert [(job_id, priority) for job_id, _req, priority in report.pending] == [
            ("j1", 0),
            ("j2", 5),
        ]

    def test_resubmission_clears_stale_terminal(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        request = _request()
        manager.record_submit("j1", request, priority=0)
        manager.record_terminal("j1", _result("j1", request))
        # The same id submitted again (a restart re-enqueued it).
        manager.record_submit("j1", request, priority=0)
        manager.close()
        report = DurabilityManager(str(tmp_path)).recover()
        assert report.completed == {}
        assert [job_id for job_id, _r, _p in report.pending] == ["j1"]

    def test_recover_gcs_stale_checkpoint_of_terminal_job(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        request = _request()
        manager.record_submit("j1", request, priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        manager.record_terminal("j1", _result("j1", request))
        # Simulate a crash between the terminal append and the checkpoint
        # delete: put the stale frontier back.
        from repro.durability.checkpoint import ExperimentCheckpoint

        manager.checkpoints.save(
            ExperimentCheckpoint(
                job_id="j1", fingerprint="stale", reads=[{"key": "k", "value": 1}]
            )
        )
        manager.close()
        recovered = DurabilityManager(str(tmp_path))
        recovered.recover()
        assert recovered.checkpoints.load("j1") is None
        recovered.close()

    def test_orphan_records_are_counted_not_fatal(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        manager.journal.append("dispatch", {"job_id": "ghost"})
        manager.journal.append("step", {"job_id": "ghost", "index": 0, "key": "k"})
        manager.record_submit("j1", _request(), priority=0)
        manager.close()
        report = DurabilityManager(str(tmp_path)).recover()
        assert report.orphan_records == 2
        assert [job_id for job_id, _r, _p in report.pending] == ["j1"]


    def test_undecodable_terminal_is_counted_and_neither_restored_nor_rerun(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        manager.journal.append("terminal", {"job_id": "j1", "result": {"status": "success"}})
        manager.record_submit("j2", _request(), priority=0)
        manager.journal.append("terminal", {"job_id": "j2"})  # no result at all: re-run
        manager.close()
        report = DurabilityManager(str(tmp_path)).recover()
        assert report.undecodable_records == 1
        assert report.completed == {}
        assert [job_id for job_id, _r, _p in report.pending] == ["j2"]

    def test_recovery_holds_results_not_the_journal(self, tmp_path, monkeypatch):
        """The journal is decoded one record at a time and each terminal
        record becomes its result on the spot."""
        import json

        from repro.durability import journal as journal_module

        manager = DurabilityManager(str(tmp_path))
        request = _request()
        for index in range(30):
            manager.record_submit(f"j{index}", request, priority=0)
            manager.record_terminal(f"j{index}", _result(f"j{index}", request))
        manager.close()
        live = {"now": 0, "most": 0}
        real_loads = json.loads

        class Record(dict):
            def __del__(self):
                live["now"] -= 1

        def counting_loads(body):
            live["now"] += 1
            live["most"] = max(live["most"], live["now"])
            return Record(real_loads(body))

        monkeypatch.setattr(journal_module.json, "loads", counting_loads)
        recovered = DurabilityManager(str(tmp_path))
        assert live["most"] <= 1  # opening checks CRCs; it decodes the last frame only
        report = recovered.recover()
        assert len(report.completed) == 30
        assert live["most"] <= 2
        recovered.close()


class TestCheckpointResume:
    def test_prepare_resume_returns_frontier_length(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        request = _request()
        manager.record_submit("j1", request, priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        manager.record_read("j1", "GlobalStepNode:n2", {"mean": 0.5})
        manager.close()
        recovered = DurabilityManager(str(tmp_path))
        recovered.recover()
        assert recovered.prepare_resume("j1", request) == 2
        reads = recovered.take_resume_reads("j1")
        assert [entry["key"] for entry in reads] == [
            "LocalStepNode:n1",
            "GlobalStepNode:n2",
        ]
        # Consumed once: a second take returns nothing.
        assert recovered.take_resume_reads("j1") is None
        recovered.close()

    def test_fingerprint_mismatch_discards_checkpoint(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        manager.close()
        recovered = DurabilityManager(str(tmp_path))
        recovered.recover()
        different = _request(y=("righthippocampus",))
        assert recovered.prepare_resume("j1", different) == 0
        assert recovered.checkpoint_mismatches == 1
        # The stale checkpoint was deleted, not left to trip a later resume.
        assert recovered.checkpoints.load("j1") is None
        recovered.close()

    def test_terminal_drops_checkpoint(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        request = _request()
        manager.record_submit("j1", request, priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        assert manager.checkpoints.load("j1") is not None
        manager.record_terminal("j1", _result("j1", request))
        assert manager.checkpoints.load("j1") is None
        manager.close()

    def test_unserializable_read_disables_checkpointing(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"bad": object()})
        assert manager.unserializable_reads == 1
        assert manager.checkpoints.load("j1") is None
        # Later reads for the job are ignored rather than crashing.
        manager.record_read("j1", "LocalStepNode:n2", {"fine": 1})
        assert manager.checkpoints.load("j1") is None
        manager.close()


class TestServiceRestart:
    def _service(self, federation, state_dir):
        from repro.api.service import MIPService

        return MIPService(federation, state_dir=str(state_dir))

    def test_finished_results_survive_restart(self, fresh_federation, tmp_path):
        service = self._service(fresh_federation, tmp_path)
        result = service.run_experiment(
            algorithm="descriptive_stats",
            data_model="dementia",
            datasets=sorted(service.datasets("dementia")),
            y=["lefthippocampus"],
        )
        assert result.status is ExperimentStatus.SUCCESS
        service.shutdown()
        restarted = self._service(fresh_federation, tmp_path)
        assert restarted.recovery["restored"] == [result.experiment_id]
        restored = restarted.engine.get(result.experiment_id)
        assert restored.to_dict() == result.to_dict()
        restarted.shutdown()

    def test_unfinished_submit_is_resumed_on_restart(self, fresh_federation, tmp_path):
        service = self._service(fresh_federation, tmp_path)
        datasets = sorted(service.datasets("dementia"))
        # Journal a submit without running it — the pre-dispatch crash cell.
        request = ExperimentRequest(
            algorithm="descriptive_stats",
            data_model="dementia",
            datasets=tuple(datasets),
            y=("lefthippocampus",),
        )
        service.durability.record_submit("exp_lost", request, priority=2)
        service.shutdown()
        restarted = self._service(fresh_federation, tmp_path)
        assert restarted.recovery["resumed"] == ["exp_lost"]
        recovered = restarted.wait_experiment("exp_lost")
        assert recovered.status is ExperimentStatus.SUCCESS
        # Audited at recovery, before the job ran: still part of its trail.
        assert [e["event"] for e in recovered.audit][:2] == [
            "experiment_resumed", "experiment_started",
        ]
        restarted.shutdown()
        # Third life: the re-run's terminal record wins over the old submit.
        third = self._service(fresh_federation, tmp_path)
        assert third.recovery["resumed"] == []
        assert "exp_lost" in third.recovery["restored"]
        third.shutdown()

    def test_status_and_metrics_expose_durability(self, fresh_federation, tmp_path):
        service = self._service(fresh_federation, tmp_path)
        assert "durability" in service.status()
        rendered = service.metrics_registry().render_prometheus()
        assert "repro_journal_appends_total" in rendered
        service.shutdown()
