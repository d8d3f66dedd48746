"""Simulated transport: metering, latency model, failure injection, job
attribution."""

import threading

import pytest

from repro.errors import FederationError, NodeUnavailableError
from repro.federation.transport import Transport, current_job


def echo_handler(message):
    return {"echo": dict(message.payload), "kind": message.kind}


@pytest.fixture()
def transport():
    t = Transport(latency_seconds=0.001, bandwidth_bytes_per_second=1e6)
    t.register("node_a", echo_handler)
    t.register("node_b", echo_handler)
    return t


class TestDelivery:
    def test_roundtrip(self, transport):
        response = transport.send("node_a", "node_b", "ping", {"x": 1})
        assert response["echo"] == {"x": 1}
        assert response["kind"] == "ping"

    def test_unknown_receiver(self, transport):
        with pytest.raises(FederationError):
            transport.send("node_a", "ghost", "ping")

    def test_duplicate_registration(self, transport):
        with pytest.raises(FederationError):
            transport.register("node_a", echo_handler)

    def test_nodes_listing(self, transport):
        assert transport.nodes() == ["node_a", "node_b"]

    def test_none_response_becomes_empty_dict(self, transport):
        transport.register("quiet", lambda m: None)
        assert transport.send("node_a", "quiet", "ping") == {}


class TestMetering:
    def test_messages_and_bytes_counted(self, transport):
        before = transport.stats.messages
        transport.send("node_a", "node_b", "ping", {"payload": "x" * 100})
        # request + response both metered
        assert transport.stats.messages == before + 2
        assert transport.stats.bytes_sent > 100

    def test_simulated_time_includes_latency(self, transport):
        transport.send("node_a", "node_b", "ping")
        assert transport.stats.simulated_seconds >= 2 * 0.001

    def test_reset(self, transport):
        transport.send("node_a", "node_b", "ping")
        transport.stats.reset()
        assert transport.stats.messages == 0

    def test_payload_elements_metered_for_table_payloads(self, transport):
        from repro.engine.table import Schema, Table
        from repro.engine.types import SQLType
        from repro.federation.serialization import table_to_payload

        table = Table.from_rows(
            Schema([("a", SQLType.INT), ("b", SQLType.REAL)]),
            [(1, 2.0), (3, 4.0), (None, 6.0)],
        )
        transport.send("node_a", "node_b", "push", {"table": table_to_payload(table)})
        # The request carries 6 cells; the echoed response carries them back.
        assert transport.stats.payload_elements == 12
        transport.send("node_a", "node_b", "ping", {"x": 1})
        assert transport.stats.payload_elements == 12  # non-tables count zero


class TestFailureInjection:
    def test_down_node_unreachable(self, transport):
        transport.set_down("node_b")
        with pytest.raises(NodeUnavailableError):
            transport.send("node_a", "node_b", "ping")

    def test_down_sender_also_fails(self, transport):
        transport.set_down("node_a")
        with pytest.raises(NodeUnavailableError):
            transport.send("node_a", "node_b", "ping")

    def test_recovery(self, transport):
        transport.set_down("node_b")
        transport.set_down("node_b", False)
        assert transport.send("node_a", "node_b", "ping")["kind"] == "ping"

    def test_drop_probability(self):
        t = Transport(drop_probability=1.0, seed=1)
        t.register("a", echo_handler)
        t.register("b", echo_handler)
        with pytest.raises(NodeUnavailableError, match="dropped"):
            t.send("a", "b", "ping")

    def test_drop_probability_validated(self):
        with pytest.raises(FederationError):
            Transport(drop_probability=1.5)


def make_transport(n=4, **kwargs):
    t = Transport(**kwargs)
    for i in range(n):
        t.register(f"w{i}", echo_handler)
    return t


class TestSendMany:
    def test_results_in_request_order(self):
        t = make_transport(4)
        requests = [(f"w{i}", "ping", {"i": i}) for i in range(4)]
        results = t.send_many("w0", requests)
        assert [r["echo"]["i"] for r in results] == [0, 1, 2, 3]

    def test_empty_request_list(self):
        t = make_transport(2)
        assert t.send_many("w0", []) == []

    def test_error_policy_return_keeps_slots(self):
        t = make_transport(3)
        t.set_down("w1")
        results = t.send_many("w0", [("w1", "ping", None), ("w2", "ping", None)])
        assert isinstance(results[0], NodeUnavailableError)
        assert results[1]["kind"] == "ping"

    def test_every_slot_holds_its_response_or_its_exception(self):
        """Permanent and transient failures alike fill their own slot; no
        failure stops the rest of the group from being delivered."""
        t = make_transport(4)
        t.set_down("w2")
        results = t.send_many(
            "w0",
            [("ghost", "ping", None), ("w2", "ping", None), ("w3", "ping", None)],
        )
        assert isinstance(results[0], FederationError) and "ghost" in str(results[0])
        assert isinstance(results[1], NodeUnavailableError)
        assert results[2]["kind"] == "ping"

    def test_parallel_clock_charges_max_not_sum(self):
        seq = make_transport(4, latency_seconds=0.01, max_workers=1)
        par = make_transport(4, latency_seconds=0.01, max_workers=4)
        requests = [(f"w{i}", "ping", {"x": 1}) for i in range(4)]
        seq.send_many("w0", requests)
        par.send_many("w0", requests)
        # Sequential sends accumulate ~4x the simulated time of the
        # overlapping parallel group (equal payloads -> equal per-send cost).
        assert seq.stats.simulated_seconds == pytest.approx(
            4 * par.stats.simulated_seconds
        )


class TestBroadcast:
    def test_responses_keyed_by_receiver(self):
        t = make_transport(4)
        responses = t.broadcast("w0", ["w1", "w2", "w3"], "ping", {"q": 1})
        assert sorted(responses) == ["w1", "w2", "w3"]
        assert all(r["echo"] == {"q": 1} for r in responses.values())

    def test_skip_policy_drops_down_nodes(self):
        t = make_transport(4)
        t.set_down("w2")
        responses = t.broadcast("w0", ["w1", "w2", "w3"], "ping")
        assert sorted(responses) == ["w1", "w3"]

    def test_skip_only_swallows_unavailability(self):
        t = make_transport(2)

        def angry(message):
            raise ValueError("handler exploded")

        t.register("angry", angry)
        with pytest.raises(Exception, match="handler exploded"):
            t.broadcast("w0", ["w1", "angry"], "ping")


class TestDeterministicDrops:
    def test_seeded_drops_identical_across_runs(self):
        outcomes = []
        for _ in range(2):
            t = make_transport(6, drop_probability=0.5, seed=77, max_workers=4)
            results = t.send_many(
                "w0",
                [(f"w{i}", "ping", {"i": i}) for i in range(1, 6)] * 4,
            )
            outcomes.append([isinstance(r, NodeUnavailableError) for r in results])
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_sequential_and_parallel_draw_same_drops(self):
        # Drop decisions are drawn in request order before dispatch, so the
        # fan-out width cannot change which messages fail.
        patterns = []
        for width in (1, 4):
            t = make_transport(6, drop_probability=0.5, seed=123, max_workers=width)
            results = t.send_many(
                "w0",
                [(f"w{i}", "ping", None) for i in range(1, 6)] * 4,
            )
            patterns.append([isinstance(r, NodeUnavailableError) for r in results])
        assert patterns[0] == patterns[1]


class TestConcurrentIntegrity:
    def test_set_down_during_broadcast_never_deadlocks(self):
        import threading as _threading

        t = make_transport(6, max_workers=4)
        stop = _threading.Event()

        def flipper():
            while not stop.is_set():
                t.set_down("w3")
                t.set_down("w3", False)

        flip = _threading.Thread(target=flipper)
        flip.start()
        try:
            for _ in range(50):
                responses = t.broadcast("w0", [f"w{i}" for i in range(1, 6)], "ping")
                # Nodes never marked down always answer.
                assert {"w1", "w2", "w4", "w5"} <= set(responses)
        finally:
            stop.set()
            flip.join(timeout=10)
        assert not flip.is_alive()

    def test_stats_consistent_under_concurrent_hammering(self):
        import threading as _threading

        t = make_transport(4, max_workers=4)
        n_threads, n_sends = 8, 25

        def hammer(index):
            for j in range(n_sends):
                t.send_many(
                    "w0",
                    [(f"w{1 + (index + j + k) % 3}", "ping", {"j": j}) for k in range(3)],
                )

        threads = [_threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = t.snapshot()
        expected = n_threads * n_sends * 3 * 2  # request + response per send
        assert snapshot.messages == expected


class TestParallelismKnob:
    def test_default_scales_with_nodes(self):
        assert make_transport(3).parallelism == 3
        assert make_transport(40).parallelism == 32

    def test_explicit_max_workers_wins(self):
        assert make_transport(4, max_workers=2).parallelism == 2
        assert make_transport(40, max_workers=40).parallelism == 40

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(FederationError):
            Transport(max_workers=0)

    def test_parallelism_one_matches_sequential_results(self):
        seq = make_transport(5, max_workers=1)
        par = make_transport(5, max_workers=5)
        requests = [(f"w{i}", "ping", {"i": i}) for i in range(5)]
        assert seq.send_many("w0", requests) == par.send_many("w0", requests)
        assert seq.snapshot().messages == par.snapshot().messages
        assert seq.snapshot().bytes_sent == par.snapshot().bytes_sent


class TestSendManySkipReportsFailures:
    """``broadcast`` skips unreachable receivers and says which it skipped."""

    def test_skip_returns_which_receivers_failed(self):
        # Regression: skipping used to lose the failed receivers, so callers
        # could not evict the dead nodes.
        t = make_transport(5)
        t.set_down("w2")
        t.set_down("w4")
        responses = t.broadcast("w0", [f"w{i}" for i in range(1, 5)], "ping")
        assert sorted(responses) == ["w1", "w3"]
        assert sorted(responses.failed) == ["w2", "w4"]
        assert all(
            isinstance(exc, NodeUnavailableError) for exc in responses.failed.values()
        )

    def test_skip_failures_counted_in_stats(self):
        t = make_transport(3)
        t.set_down("w1")
        t.broadcast("w0", ["w1", "w2"], "ping")
        assert t.snapshot().failed_sends == 1

    def test_broadcast_skip_reports_failed_receivers(self):
        t = make_transport(4)
        t.set_down("w2")
        responses = t.broadcast("w0", ["w1", "w2", "w3"], "ping")
        assert sorted(responses) == ["w1", "w3"]
        assert list(responses.failed) == ["w2"]

    def test_skip_still_raises_permanent_errors(self):
        t = make_transport(2)

        def angry(message):
            raise ValueError("handler exploded")

        t.register("angry", angry)
        with pytest.raises(ValueError, match="handler exploded"):
            t.broadcast("w0", ["w1", "angry"], "ping")

    def test_skip_empty_requests(self):
        t = make_transport(2)
        result = t.broadcast("w0", [], "ping")
        assert result == {} and result.failed == {}


class TestRetries:
    def test_retry_recovers_from_transient_drops(self):
        t = make_transport(4, drop_probability=0.5, seed=42, retries=5)
        results = t.send_many(
            "w0", [(f"w{i}", "ping", {"i": i}) for i in range(1, 4)] * 5
        )
        assert len(results) == 15  # every send eventually delivered
        assert t.snapshot().retries > 0
        assert t.snapshot().failed_sends == 0

    def test_down_node_exhausts_retries(self):
        t = make_transport(3, retries=2)
        t.set_down("w1")
        with pytest.raises(NodeUnavailableError):
            t.send("w0", "w1", "ping")
        snapshot = t.snapshot()
        assert snapshot.retries == 2  # two re-attempts after the first try
        assert snapshot.failed_sends == 1

    def test_permanent_errors_are_not_retried(self):
        t = make_transport(2, retries=4)
        with pytest.raises(FederationError, match="unknown node"):
            t.send("w0", "ghost", "ping")
        assert t.snapshot().retries == 0

    def test_backoff_delays_charge_the_simulated_clock(self):
        import random

        from repro.federation.transport import (
            BACKOFF_BASE_SECONDS,
            BACKOFF_JITTER,
            BACKOFF_MAX_SECONDS,
        )

        t = make_transport(2, latency_seconds=0.001, seed=11, retries=2)
        t.set_down("w1")
        with pytest.raises(NodeUnavailableError):
            t.send("w0", "w1", "ping")
        # A lossless link draws no drops: the seed's first two uniforms are
        # the jitter units of the two backoffs.
        rng = random.Random(11)
        backoffs = [
            min(BACKOFF_BASE_SECONDS * 2**k, BACKOFF_MAX_SECONDS)
            * (1 - BACKOFF_JITTER + 2 * BACKOFF_JITTER * rng.random())
            for k in range(2)
        ]
        # 3 failed attempts x latency + the two jittered backoffs.
        assert t.snapshot().simulated_seconds == pytest.approx(0.003 + sum(backoffs))
        assert 0.05 * 0.75 <= backoffs[0] <= 0.05 * 1.25
        assert 0.1 * 0.75 <= backoffs[1] <= 0.1 * 1.25

    def test_negative_retries_are_rejected(self):
        from repro.federation.policy import FailurePolicy

        with pytest.raises(FederationError):
            FailurePolicy(retries=-1)
        with pytest.raises(FederationError):
            Transport(retries=-1)


class TestSnapshotIsolation:
    """snapshot() hands out copies, never the live counters."""

    def test_snapshot_is_detached_from_live_stats(self):
        t = make_transport(2)
        t.send("w0", "w1", "ping")
        snap = t.snapshot()
        before = (snap.messages, snap.bytes_sent, snap.simulated_seconds)

        snap.messages = 999_999
        snap.reset()
        assert t.stats.messages > 0, "mutating a snapshot must not touch live stats"

        t.send("w0", "w1", "ping")
        assert t.stats.messages == before[0] + 2
        # The first snapshot is frozen at the moment it was taken.
        assert snap.messages == 0
        assert t.snapshot().messages == before[0] + 2


class TestJobScope:
    """A transport records which thread works for which job: the map a
    service hands to the sampling profiler it attaches."""

    def test_nested_scope_keeps_the_outer_owner(self):
        t = make_transport(1)
        ident = threading.get_ident()
        with t.job_scope("outer"):
            with t.job_scope("inner"):
                assert t.thread_jobs == {ident: "outer"}
                assert current_job() == "inner"
            assert t.thread_jobs == {ident: "outer"}
        assert t.thread_jobs == {}
        assert current_job() is None

    def test_fan_out_threads_work_for_the_scope_job(self):
        """Pool threads are recorded for the send they run for a job, and a
        send outside any job records no thread."""
        t = Transport(max_workers=2)
        seen = []

        def handler(message):
            seen.append(t.thread_jobs.get(threading.get_ident()))
            return {}

        for node in ("w0", "w1"):
            t.register(node, handler)
        requests = [("w0", "ping", None), ("w1", "ping", None)]
        try:
            with t.job_scope("job-A"):
                t.send_many("w0", requests)
            t.send_many("w0", requests)
        finally:
            t.shutdown()
        assert seen == ["job-A", "job-A", None, None]
        assert t.thread_jobs == {}

    def test_each_transport_keeps_its_own_map(self):
        a, b = make_transport(1), make_transport(1)
        with a.job_scope("job-A"):
            assert a.thread_jobs == {threading.get_ident(): "job-A"}
            assert b.thread_jobs == {}
