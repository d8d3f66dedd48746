"""The append-only audit log and cross-node merging."""

import pytest

from repro.observability.audit import AuditLog, merged_events, owned_by


@pytest.mark.parametrize(
    "job_id, owned",
    [
        ("e1", True),
        ("e1_s3", True),
        ("e1_read2_w1", True),
        ("e10", False),
        ("e10_s1", False),
        ("xe1", False),
        ("", False),
        ("e1_y", False),
        ("e1_y_s1", False),
        ("e1_bcast", True),
        ("e1_sample", False),
    ],
)
def test_owned_by(job_id, owned):
    assert owned_by(job_id, "e1") is owned


class TestAuditLog:
    def test_record_and_query(self):
        log = AuditLog("hospital_a")
        log.record("dataset_read", job_id="exp_1_s1", rows=120)
        log.record("aggregate_shared", job_id="exp_1_s2", table="t")
        log.record("dataset_read", job_id="exp_2_s1", rows=50)
        assert len(log) == 3
        assert len(log.events(event="dataset_read")) == 2

    def test_experiment_prefix_match(self):
        log = AuditLog("master")
        log.record("experiment_started", job_id="exp_1")
        log.record("secure_aggregate", job_id="exp_1_s3_x")
        log.record("experiment_started", job_id="exp_10")  # not a prefix match
        events = log.events(job_id="exp_1")
        assert [e.job_id for e in events] == ["exp_1", "exp_1_s3_x"]

    def test_sequence_is_monotonic(self):
        log = AuditLog("n")
        entries = [log.record("e") for _ in range(5)]
        assert [e.seq for e in entries] == [0, 1, 2, 3, 4]

    def test_events_without_job_id_are_excluded_from_job_queries(self):
        log = AuditLog("n")
        log.record("global_event")
        assert log.events(job_id="exp_1") == []
        assert len(log.events()) == 1


class TestMergedEvents:
    def test_merge_orders_by_time_then_node(self):
        a, b = AuditLog("a"), AuditLog("b")
        a.record("first", job_id="exp_1")
        b.record("second", job_id="exp_1_s1")
        a.record("third", job_id="exp_1_s2")
        merged = merged_events([a, b], job_id="exp_1")
        assert sorted(e["event"] for e in merged) == ["first", "second", "third"]
        keys = [(e["wall_time"], e["node"], e["seq"]) for e in merged]
        assert keys == sorted(keys)

    def test_merge_filters_by_event(self):
        a, b = AuditLog("a"), AuditLog("b")
        a.record("dataset_read", job_id="j")
        b.record("aggregate_shared", job_id="j")
        merged = merged_events([a, b], event="dataset_read")
        assert [e["node"] for e in merged] == ["a"]


class TestAuditTrail:
    """What a finished experiment keeps: the nodes' records, read as dicts."""

    def _trail(self):
        from repro.observability.audit import AuditTrail

        a, b = AuditLog("a"), AuditLog("b")
        a.record("first", job_id="exp_1", rows=3)
        b.record("second", job_id="exp_1_s1")
        a.record("other", job_id="exp_2")
        return AuditTrail([a, b], job_id="exp_1"), [a, b]

    def test_reads_like_a_tuple_of_event_dicts(self):
        trail, logs = self._trail()
        assert len(trail) == 2 and trail
        assert list(trail) == merged_events(logs, job_id="exp_1")
        assert trail == tuple(trail) and trail == list(trail)
        assert trail[0]["event"] == "first" and trail[-1]["node"] == "b"
        assert trail[1:] == (trail[1],)
        assert trail != ()

    def test_entries_are_copied_out(self):
        trail, logs = self._trail()
        trail[0]["details"]["rows"] = 999
        assert trail[0]["details"]["rows"] == 3
        assert logs[0].events()[0].details == {"rows": 3}

    def test_later_events_do_not_join_a_built_trail(self):
        trail, logs = self._trail()
        logs[0].record("late", job_id="exp_1")
        assert [e["event"] for e in trail] == ["first", "second"]


class _CountedId(str):
    """A job id that counts how often the log's filter looks at it."""

    examined = 0

    def __eq__(self, other):
        _CountedId.examined += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


class TestTrailReadsOnlyTheTail:
    def test_foreign_history_is_not_examined(self):
        from repro.observability.audit import AuditTrail

        logs = [AuditLog("master"), AuditLog("hospital_a")]
        for index in range(5000):
            logs[index % 2].record("dataset_read", job_id=_CountedId(f"exp_old{index}_s1"))
        marks = [len(log) for log in logs]
        logs[0].record("experiment_started", job_id="exp_new")
        logs[1].record("dataset_read", job_id="exp_new_s1")
        logs[1].record("dataset_read", job_id=_CountedId("exp_other_s1"))
        logs[0].record("experiment_finished", job_id="exp_new")
        _CountedId.examined = 0
        trail = AuditTrail(logs, job_id="exp_new", since=marks)
        assert _CountedId.examined == 1  # the overlapping job's event, none of the 5000
        assert trail == AuditTrail(logs, job_id="exp_new")
        assert _CountedId.examined == 1 + 5001
        assert [e["event"] for e in trail] == [
            "experiment_started", "dataset_read", "experiment_finished",
        ]

    def test_since_is_a_log_length(self):
        log = AuditLog("n")
        log.record("a", job_id="j")
        mark = len(log)
        log.record("b", job_id="j")
        assert [e.event for e in log.events(job_id="j", since=mark)] == ["b"]
        assert [e.seq for e in log.events(since=mark)] == [1]
        assert log.events(since=len(log)) == []

    def test_overlapping_jobs_keep_the_trail_a_full_scan_finds(self, fresh_federation):
        from repro.core.experiment import ExperimentEngine, ExperimentRequest
        from repro.observability.audit import AuditTrail

        request = ExperimentRequest(
            algorithm="descriptive_stats", data_model="dementia",
            datasets=("edsd", "adni", "ppmi"), y=("p_tau",),
        )
        engine = ExperimentEngine(fresh_federation, aggregation="plain", max_concurrent=3)
        try:
            engine.run(request)  # history the three trails must skip
            ids = [engine.submit(request) for _ in range(3)]
            results = [engine.wait(job_id, timeout=120) for job_id in ids]
        finally:
            engine.shutdown(wait=False)
        logs = fresh_federation.audit_logs()
        for result in results:
            assert result.status.value == "success"
            events = [e["event"] for e in result.audit]
            assert events[0] == "experiment_started" and events[-1] == "experiment_finished"
            assert "dataset_read" in events and "aggregate_shared" in events
            assert result.audit == AuditTrail(logs, job_id=result.experiment_id)
