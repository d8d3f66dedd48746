"""Master-node orchestration and the two aggregation paths."""

import threading

import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.errors import DatasetUnavailableError, FederationError
from repro.federation.master import Master
from repro.federation.worker import Worker
from repro.federation.transport import Transport
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.smpc.cluster import SMPCCluster
from repro.udfgen import relation, secure_transfer, transfer, udf


@udf(data=relation(), return_type=[transfer()])
def master_test_local(data):
    return {"sum": float(data.to_matrix().sum()), "n": len(data)}


@udf(data=relation(), return_type=[secure_transfer()])
def master_test_secure(data):
    return {"sum": {"data": float(data.to_matrix().sum()), "operation": "sum"}}


def build_master(n_workers=2, smpc=True):
    transport = Transport()
    workers = {}
    for index in range(n_workers):
        worker = Worker(f"hospital_{index}")
        dataset = ["edsd", "adni", "ppmi"][index % 3]
        worker.load_data_model(
            "dementia", generate_cohort(CohortSpec(dataset, 50, seed=index))
        )
        transport.register(worker.node_id, worker.handle)
        workers[worker.node_id] = worker
    cluster = SMPCCluster(3, "shamir", seed=3) if smpc else None
    master = Master(transport, list(workers), smpc_cluster=cluster)
    return master, workers, transport


def run_local(master, udf_name, workers):
    args = {
        w: {"data": {"kind": "view",
                     "query": "SELECT lefthippocampus FROM data_dementia"}}
        for w in workers
    }
    return master.run_local_step("job1", udf_name, args)


class TestCatalog:
    def test_availability(self):
        master, workers, _ = build_master()
        availability = master.refresh_catalog()
        assert availability["dementia"]["edsd"] == ["hospital_0"]
        assert availability["dementia"]["adni"] == ["hospital_1"]

    def test_workers_for(self):
        master, _, _ = build_master()
        assert master.workers_for("dementia", ["edsd"]) == ["hospital_0"]
        assert set(master.workers_for("dementia", ["edsd", "adni"])) == {
            "hospital_0", "hospital_1",
        }

    def test_missing_dataset(self):
        master, _, _ = build_master()
        with pytest.raises(DatasetUnavailableError):
            master.workers_for("dementia", ["nonexistent"])

    def test_missing_model(self):
        master, _, _ = build_master()
        with pytest.raises(DatasetUnavailableError):
            master.workers_for("genomics", ["edsd"])

    def test_down_worker_excluded_from_catalog(self):
        master, _, transport = build_master()
        transport.set_down("hospital_1")
        availability = master.refresh_catalog()
        assert "adni" not in availability["dementia"]
        assert master.alive_workers() == ["hospital_0"]


class TestPlainAggregation:
    def test_remote_merge_path(self):
        master, workers, _ = build_master()
        results = run_local(
            master, "tests_federation_test_master_master_test_local", workers
        )
        tables = {w: results[w][0]["table"] for w in workers}
        transfers = master.gather_transfers_plain("job1", tables)
        assert len(transfers) == 2
        assert all(t["n"] == 50 for t in transfers)

    def test_remote_resolver_parses_location(self):
        master, _, _ = build_master()
        with pytest.raises(FederationError, match="bad remote location"):
            master._resolve_remote("no-slash")


class TestSecureAggregation:
    def test_smpc_path(self):
        master, workers, _ = build_master()
        results = run_local(
            master, "tests_federation_test_master_master_test_secure", workers
        )
        tables = {w: results[w][0]["table"] for w in workers}
        aggregated = master.gather_transfers_secure("sec_job", tables)
        transfers_sum = aggregated["sum"]
        # equals the plain sum of both workers' local sums
        plain = run_local(
            master, "tests_federation_test_master_master_test_local", workers
        )
        plain_tables = {w: plain[w][0]["table"] for w in workers}
        reference = sum(t["sum"] for t in master.gather_transfers_plain("p", plain_tables))
        assert transfers_sum == pytest.approx(reference, abs=1e-3)

    def test_requires_cluster(self):
        master, workers, _ = build_master(smpc=False)
        with pytest.raises(FederationError, match="SMPC"):
            master.gather_transfers_secure("j", {"hospital_0": "t"})


class TestGlobalSteps:
    def test_store_and_read_transfer(self):
        master, _, _ = build_master()
        table = master.store_global_transfer("j", {"coefficients": [1.0, 2.0]})
        assert master.read_transfer(table) == {"coefficients": [1.0, 2.0]}

    def test_read_unknown_table(self):
        master, _, _ = build_master()
        with pytest.raises(FederationError):
            master.read_transfer("ghost")

    def test_broadcast(self):
        master, workers, _ = build_master()
        table = master.store_global_transfer("j", {"beta": [0.5]})
        placed = master.broadcast_transfer("j", table, list(workers))
        for worker_id, remote_table in placed.items():
            blob = workers[worker_id].database.scalar(f"SELECT * FROM {remote_table}")
            assert "beta" in blob

    def test_cleanup_tolerates_down_workers(self):
        master, workers, transport = build_master()
        transport.set_down("hospital_1")
        master.cleanup("j", list(workers))  # must not raise

    def test_cleanup_matches_the_owning_job_not_a_substring(self):
        master, _, _ = build_master()
        other = master.store_global_transfer("e10_s4", {"beta": [1.0]})
        own = master.store_global_transfer("e1_s4", {"beta": [2.0]})
        assert (other, own) == ("transfer_e10_s4_1", "transfer_e1_s4_1")
        master.cleanup("e1", [])
        assert master.read_transfer(other) == {"beta": [1.0]}
        with pytest.raises(FederationError, match="not a known global output"):
            master.read_transfer(own)
        master.cleanup("e10", [])
        assert master.database.table_names() == []

    def test_overlapping_experiments_e1_and_e10_both_succeed(self, fresh_federation):
        """e1 finishes while e10 holds a global table it has yet to broadcast."""
        master = fresh_federation.master
        e10_holds_a_table, e1_cleaned = threading.Event(), threading.Event()
        real_step, real_cleanup = master.run_global_step, master.cleanup

        def run_global_step(job_id, udf_name, arguments):
            outputs = real_step(job_id, udf_name, arguments)
            if job_id.startswith("e10_"):
                e10_holds_a_table.set()
                assert e1_cleaned.wait(timeout=60)
            return outputs

        def cleanup(job_id, workers):
            if job_id == "e1":
                assert e10_holds_a_table.wait(timeout=60)
            real_cleanup(job_id, workers)
            if job_id == "e1":
                e1_cleaned.set()

        master.run_global_step, master.cleanup = run_global_step, cleanup
        request = ExperimentRequest(
            algorithm="kmeans", data_model="dementia", datasets=("edsd", "adni", "ppmi"),
            y=("ab_42", "p_tau"), parameters={"k": 2, "seed": 3, "iterations_max_number": 3},
        )
        engine = ExperimentEngine(fresh_federation, aggregation="plain", max_concurrent=2)
        try:
            for experiment_id in ("e1", "e10"):
                engine.submit(request, experiment_id=experiment_id)
            results = [engine.wait(experiment_id, timeout=120) for experiment_id in ("e1", "e10")]
        finally:
            e10_holds_a_table.set()
            e1_cleaned.set()
            engine.shutdown(wait=False)
        assert [(r.status.value, r.error) for r in results] == [("success", None)] * 2
        assert results[0].result == results[1].result
        assert master.database.table_names() == []
