"""The plain gather runs nothing on the master's engine and stores nothing.

Paper §2: the non-secure path ships each worker's local result back to the
master and aggregates it there, and the union of the parts is not
materialised.  The gather is one fan-out of ``fetch_table``: it registers
no table in the master's catalog and runs no statement on its database,
also when the failure policy drops a worker lost at the fetch.
"""

import pytest

from repro.api.service import MIPService
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.engine.database import Database
from repro.federation.controller import FederationConfig, create_federation
from repro.federation.policy import FailurePolicy

import repro.algorithms  # noqa: F401

SITES = {"hospital_a": "edsd", "hospital_b": "adni", "hospital_c": "ppmi"}


def build(policy: FailurePolicy | None = None):
    federation = create_federation(
        {
            worker: {"dementia": generate_cohort(CohortSpec(code, 80, seed=index + 1))}
            for index, (worker, code) in enumerate(SITES.items())
        },
        FederationConfig(seed=3, failure_policy=policy),
    )
    return federation, MIPService(federation, aggregation="plain")


@pytest.fixture
def master_use(monkeypatch):
    """Records, per database, the statements run on it, the tables
    registered in it, and the plain gathers the master made."""
    used = {"statements": [], "registered": [], "gathers": 0}
    execute_statement = Database.execute_statement
    register_table = Database.register_table

    def recording_execute(self, statement, params=()):
        used["statements"].append((self.name, statement))
        return execute_statement(self, statement, params)

    def recording_register(self, name, table, replace=False):
        used["registered"].append((self.name, name))
        return register_table(self, name, table, replace)

    monkeypatch.setattr(Database, "execute_statement", recording_execute)
    monkeypatch.setattr(Database, "register_table", recording_register)
    return used


def count_gathers(federation, used):
    master = federation.master
    real = master.gather_transfers_plain

    def gather(*args, **kwargs):
        used["gathers"] += 1
        return real(*args, **kwargs)

    master.gather_transfers_plain = gather


def run_ttest(service):
    return service.run_experiment(
        "ttest_onesample", "dementia", list(SITES.values()),
        y=["p_tau"], parameters={"mu": 40.0},
    )


def on_master(entries):
    return [entry for node, entry in entries if node == "master"]


def test_a_plain_experiment_runs_no_statement_on_the_master(master_use):
    federation, service = build()
    try:
        count_gathers(federation, master_use)
        out = run_ttest(service)
    finally:
        service.shutdown()
        federation.shutdown()
    assert out.status.value == "success", out.error
    assert master_use["gathers"] == 1
    assert on_master(master_use["statements"]) == []
    assert on_master(master_use["registered"]) == []
    # The workers did run their step: the recorder sees their databases.
    assert master_use["statements"]
    assert federation.master.database.table_names() == []


def test_a_worker_lost_at_the_fetch_is_dropped_and_nothing_is_stored(master_use):
    federation, service = build(FailurePolicy(on_worker_loss="degrade", min_workers=2))
    master = federation.master
    real_step = master.run_local_step

    def run_local_step(*args, **kwargs):
        outputs = real_step(*args, **kwargs)
        federation.transport.set_down("hospital_c", True)
        return outputs

    master.run_local_step = run_local_step
    try:
        count_gathers(federation, master_use)
        out = run_ttest(service)
    finally:
        service.shutdown()
        federation.shutdown()
    assert out.status.value == "success", out.error
    assert out.evicted == ("hospital_c",)
    assert master_use["gathers"] == 1
    (gathered,) = [event for event in out.audit if event["event"] == "plain_aggregate"]
    assert gathered["details"]["workers"] == ["hospital_a", "hospital_b"]
    assert gathered["details"]["dropped"] == ["hospital_c"]
    assert on_master(master_use["statements"]) == []
    assert on_master(master_use["registered"]) == []
    assert master.database.table_names() == []
