"""An evicted worker still loses the experiment's tables.

A worker lost mid-flow under a degrading failure policy is dropped from the
rest of the experiment, but it already holds the tables the experiment made
there — step outputs, broadcasts and the resident copy of its data view.
Cleanup must reach it too: at once if it answers, otherwise the next time it
does (a catalog refresh, a ping, or its revival).
"""

from repro.api.service import MIPService
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation
from repro.federation.policy import FailurePolicy
from repro.observability.audit import owned_by

import repro.algorithms  # noqa: F401

SITES = {"hospital_a": "edsd", "hospital_b": "adni", "hospital_c": "ppmi"}


def build():
    federation = create_federation(
        {
            worker: {"dementia": generate_cohort(CohortSpec(code, 300, seed=index + 1))}
            for index, (worker, code) in enumerate(SITES.items())
        },
        FederationConfig(
            seed=3,
            failure_policy=FailurePolicy(on_worker_loss="degrade", min_workers=2),
        ),
    )
    return federation, MIPService(federation, aggregation="plain")


def down_after_local_steps(federation, worker, steps):
    """Take ``worker`` down right after the master's ``steps``-th local step."""
    master = federation.master
    real = master.run_local_step
    calls = []

    def run_local_step(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == steps:
            federation.transport.set_down(worker, True)
        return result

    master.run_local_step = run_local_step


def held_tables(federation, experiment_id):
    return {
        worker_id: sorted(
            table
            for table, record in worker._outputs.items()
            if owned_by(record.job_id, experiment_id)
        )
        for worker_id, worker in federation.workers.items()
    }


def run_logistic(service):
    return service.run_experiment(
        "logistic_regression",
        "dementia",
        list(SITES.values()),
        y=["gender"],
        x=["lefthippocampus", "agevalue"],
        parameters={"max_iterations": 4, "tolerance": 0.0},
    )


def test_revived_worker_drops_the_tables_of_the_experiment_that_evicted_it():
    federation, service = build()
    try:
        down_after_local_steps(federation, "hospital_c", 3)
        out = run_logistic(service)
        assert out.status.value == "success", out.error
        assert out.evicted == ("hospital_c",)
        assert held_tables(federation, out.experiment_id)["hospital_c"]  # unreachable

        federation.set_worker_down("hospital_c", False)

        assert held_tables(federation, out.experiment_id) == {w: [] for w in SITES}
        for worker in federation.workers.values():
            assert worker.database.table_names() == ["data_dementia"]
    finally:
        service.shutdown()
        federation.shutdown()


def test_a_missed_cleanup_is_sent_once_and_then_forgotten():
    federation, service = build()
    try:
        down_after_local_steps(federation, "hospital_c", 3)
        out = run_logistic(service)
        revived = federation.workers["hospital_c"]
        real = revived._handle_cleanup
        received = []

        def handle_cleanup(payload):
            received.append(payload)
            return real(payload)

        revived._handle_cleanup = handle_cleanup
        federation.transport.set_down("hospital_c", False)
        federation.master.alive_workers()
        federation.master.alive_workers()
        assert received == [{"job_id": out.experiment_id}]
        assert held_tables(federation, out.experiment_id) == {w: [] for w in SITES}
    finally:
        service.shutdown()
        federation.shutdown()
