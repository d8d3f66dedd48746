"""Pre-dispatch cancellation must never reach the runner.

The queue's pre-dispatch cancel path finalizes the job in place and leaves
its heap entry behind as a tombstone the executor skips
(:meth:`ExperimentQueue._claim_locked`).  A tombstoned job must never reach
``ExperimentRunner.execute``, so a cancelled-before-dispatch experiment
touches no worker; a mixed batch of successes, errors and cancels leaves no
experiment table behind.  This is the audit-regression suite for that
invariant.
"""

import threading

from repro.core.experiment import ExperimentEngine, ExperimentRequest

REQUEST = ExperimentRequest(
    algorithm="descriptive_stats",
    data_model="dementia",
    datasets=("edsd", "adni", "ppmi"),
    y=("p_tau",),
)


def test_tombstoned_job_never_dispatches_or_acquires_load(fresh_federation):
    engine = ExperimentEngine(fresh_federation, aggregation="plain",
                              max_concurrent=1)
    runner = engine.runner
    original_execute = runner.execute
    gate = threading.Event()
    first_started = threading.Event()
    dispatched = []

    def gated_execute(request, experiment_id, cancel_event=None, info=None):
        dispatched.append(experiment_id)
        first_started.set()
        assert gate.wait(30), "test gate never opened"
        return original_execute(
            request, experiment_id, cancel_event=cancel_event, info=info
        )

    runner.execute = gated_execute
    try:
        first = engine.submit(REQUEST)
        assert first_started.wait(30)
        # The pool (size 1) is busy: this job is QUEUED, on the heap.
        second = engine.submit(REQUEST)
        assert engine.cancel(second) is True
        gate.set()
        first_result = engine.wait(first, timeout=60)
        second_result = engine.wait(second, timeout=60)
    finally:
        gate.set()
        runner.execute = original_execute
        engine.shutdown()

    assert first_result.status.value == "success", first_result.error
    assert second_result.status.value == "cancelled"
    assert "before dispatch" in second_result.error
    # The tombstone was skipped: only the first job ever reached the runner.
    assert dispatched == [first]


def test_load_drains_after_mixed_batch(fresh_federation):
    """Successes, pre-dispatch cancels and errors all drop their tables."""
    engine = ExperimentEngine(fresh_federation, aggregation="plain",
                              max_concurrent=2)
    bad = ExperimentRequest(
        algorithm="descriptive_stats",
        data_model="dementia",
        datasets=("edsd",),
        y=("no_such_variable",),
    )
    try:
        ids = [engine.submit(REQUEST) for _ in range(4)]
        ids.append(engine.submit(bad))
        cancelled = engine.submit(REQUEST)
        engine.cancel(cancelled)
        results = [engine.wait(job_id, timeout=60) for job_id in ids]
        engine.wait(cancelled, timeout=60)
    finally:
        engine.shutdown()
    statuses = {result.status.value for result in results}
    assert "success" in statuses
    for worker in fresh_federation.workers.values():
        assert worker.database.table_names() == ["data_dementia"]


def test_queue_history_shows_tombstone_lifecycle(fresh_federation):
    engine = ExperimentEngine(fresh_federation, aggregation="plain",
                              max_concurrent=1)
    runner = engine.runner
    original_execute = runner.execute
    gate = threading.Event()
    first_started = threading.Event()

    def gated_execute(request, experiment_id, cancel_event=None, info=None):
        first_started.set()
        assert gate.wait(30)
        return original_execute(
            request, experiment_id, cancel_event=cancel_event, info=info
        )

    runner.execute = gated_execute
    try:
        first = engine.submit(REQUEST)
        assert first_started.wait(30)
        second = engine.submit(REQUEST)
        engine.cancel(second)
        gate.set()
        engine.wait(first, timeout=60)
        engine.wait(second, timeout=60)
        histories = engine.queue.job_histories()
        snapshots = {s.job_id: s for s in engine.jobs()}
    finally:
        gate.set()
        runner.execute = original_execute
        engine.shutdown()

    # Straight from QUEUED to CANCELLED: never RUNNING.
    assert histories[second] == ("pending", "queued", "cancelled")
    assert snapshots[second].elapsed_seconds is None
    assert snapshots[second].queued_seconds >= 0.0
