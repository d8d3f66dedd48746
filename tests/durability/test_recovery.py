"""Journal replay, read-frontier resume, and full service restarts."""

from __future__ import annotations

import os

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
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        manager.record_terminal("j1", _result("j1", request))
        # The same id submitted again (a restart re-enqueued it).
        manager.record_submit("j1", request, priority=0)
        manager.close()
        recovered = DurabilityManager(str(tmp_path))
        report = recovered.recover()
        assert report.completed == {}
        assert [job_id for job_id, _r, _p in report.pending] == ["j1"]
        # The finished run's reads were retired with its terminal record.
        assert recovered.prepare_resume("j1") == 0
        recovered.close()

    def test_recover_gcs_stale_checkpoint_of_terminal_job(self, tmp_path):
        """A finished job's frontier is retired by its terminal record: the
        fold hands nothing to resume, and nothing but the journal is on
        disk to garbage-collect."""
        manager = DurabilityManager(str(tmp_path))
        request = _request()
        manager.record_submit("j1", request, priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        manager.record_terminal("j1", _result("j1", request))
        manager.close()
        recovered = DurabilityManager(str(tmp_path))
        report = recovered.recover()
        assert sorted(report.completed) == ["j1"]
        assert recovered.prepare_resume("j1") == 0
        assert recovered.take_resume_reads("j1") is None
        assert os.listdir(tmp_path) == ["journal"]
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


def _reopened_frontier(state_dir) -> list[dict] | None:
    """Reopen ``state_dir`` and return the frontier folded for ``j1``."""
    manager = DurabilityManager(str(state_dir))
    manager.recover()
    reads = manager.take_resume_reads("j1")
    manager.close()
    return reads


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
        assert recovered.prepare_resume("j1") == 2
        reads = recovered.take_resume_reads("j1")
        assert reads == [
            {"key": "LocalStepNode:n1", "value": {"sum": 1.5}},
            {"key": "GlobalStepNode:n2", "value": {"mean": 0.5}},
        ]
        # Consumed once: a second take returns nothing.
        assert recovered.take_resume_reads("j1") is None
        recovered.close()

    def test_fingerprint_mismatch_discards_checkpoint(self, tmp_path):
        """A re-submit of a changed request clears the frontier recorded
        for the old one: it resumes 0 reads."""
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        different = _request(y=("righthippocampus",))
        manager.record_submit("j1", different, priority=0)
        manager.close()
        recovered = DurabilityManager(str(tmp_path))
        report = recovered.recover()
        assert [(job_id, req) for job_id, req, _p in report.pending] == [("j1", different)]
        assert recovered.prepare_resume("j1") == 0
        assert recovered.take_resume_reads("j1") is None
        recovered.close()

    def test_terminal_drops_checkpoint(self, tmp_path):
        """A read is durable when ``record_read`` returns; the terminal
        record retires it."""
        manager = DurabilityManager(str(tmp_path))
        request = _request()
        manager.record_submit("j1", request, priority=0)
        fsyncs = manager.journal.stats.fsyncs_total
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        assert manager.journal.stats.fsyncs_total == fsyncs + 1
        steps = [r for r in manager.journal.records() if r["kind"] == "step"]
        assert [(r["index"], r["key"], r["value"]) for r in steps] == [
            (0, "LocalStepNode:n1", {"sum": 1.5})
        ]
        manager.record_terminal("j1", _result("j1", request))
        manager.close()
        assert _reopened_frontier(tmp_path) is None

    def test_unserializable_read_disables_checkpointing(self, tmp_path):
        """A read that does not serialize writes nothing, stops recording
        for the job, and leaves the earlier prefix resumable."""
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        segment = os.path.join(tmp_path, "journal", "journal-000001.wal")
        before = (
            os.path.getsize(segment),
            manager.journal._seq,
            manager.journal.stats.appends_total,
        )
        manager.record_read("j1", "LocalStepNode:n2", {"bad": object()})
        assert manager.unserializable_reads == 1
        # Later reads for the job are ignored rather than crashing.
        manager.record_read("j1", "LocalStepNode:n3", {"fine": 1})
        after = (
            os.path.getsize(segment),
            manager.journal._seq,
            manager.journal.stats.appends_total,
        )
        assert after == before
        manager.close()
        assert _reopened_frontier(tmp_path) == [
            {"key": "LocalStepNode:n1", "value": {"sum": 1.5}}
        ]


class TestFrontierFold:
    def test_torn_final_step_loses_only_that_read(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        for index in range(3):
            manager.record_read("j1", f"LocalStepNode:n{index}", {"sum": index})
        manager.close()
        segment = os.path.join(tmp_path, "journal", "journal-000001.wal")
        with open(segment, "ab") as handle:
            handle.truncate(os.path.getsize(segment) - 5)
        reads = _reopened_frontier(tmp_path)
        assert [entry["value"] for entry in reads] == [{"sum": 0}, {"sum": 1}]

    def test_resubmit_of_same_request_keeps_frontier_until_rerecorded(self, tmp_path):
        request = _request()
        first = DurabilityManager(str(tmp_path))
        first.record_submit("j1", request, priority=0)
        for index in range(3):
            first.record_read("j1", f"LocalStepNode:n{index}", {"life": 1})
        first.close()
        # Second life: the job is re-submitted and dies before its replay
        # re-records anything — the first life's frontier still stands.
        second = DurabilityManager(str(tmp_path))
        second.recover()
        second.record_submit("j1", request, priority=0)
        second.close()
        assert [e["value"] for e in _reopened_frontier(tmp_path)] == [{"life": 1}] * 3
        # Third life re-records its first read: the frontier is this life's.
        third = DurabilityManager(str(tmp_path))
        third.recover()
        third.record_submit("j1", request, priority=0)
        third.record_read("j1", "LocalStepNode:n0", {"life": 3})
        third.close()
        assert _reopened_frontier(tmp_path) == [
            {"key": "LocalStepNode:n0", "value": {"life": 3}}
        ]

    def test_step_that_skips_ahead_is_ignored(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        manager.record_submit("j1", _request(), priority=0)
        manager.record_read("j1", "LocalStepNode:n1", {"sum": 1.5})
        # A step without a value, as journals written before step records
        # carried values hold, extends nothing either.
        manager.journal.append(
            "step", {"job_id": "j1", "index": 1, "key": "LocalStepNode:n2"}
        )
        manager.journal.append(
            "step", {"job_id": "j1", "index": 3, "key": "LocalStepNode:n9", "value": 0}
        )
        manager.close()
        assert _reopened_frontier(tmp_path) == [
            {"key": "LocalStepNode:n1", "value": {"sum": 1.5}}
        ]


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

    def test_finished_run_leaves_only_the_journal(self, fresh_federation, tmp_path):
        service = self._service(fresh_federation, tmp_path)
        result = service.run_experiment(
            algorithm="descriptive_stats",
            data_model="dementia",
            datasets=sorted(service.datasets("dementia")),
            y=["lefthippocampus"],
        )
        service.shutdown()
        assert result.status is ExperimentStatus.SUCCESS
        assert os.listdir(tmp_path) == ["journal"]

    def test_status_and_metrics_expose_durability(self, fresh_federation, tmp_path):
        service = self._service(fresh_federation, tmp_path)
        assert "durability" in service.status()
        rendered = service.metrics_registry().render_prometheus()
        assert "repro_journal_appends_total" in rendered
        service.shutdown()
