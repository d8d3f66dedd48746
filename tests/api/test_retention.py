"""What a finished experiment leaves behind in long-lived components.

The service keeps every ``ExperimentResult``; nothing else should grow with
the number of experiments run.
"""

from repro.api.service import MIPService
from repro.errors import FederationError
from repro.smpc.cluster import SMPCCluster


def _run(service, **kwargs):
    job_id = service.submit_experiment(
        "descriptive_stats", "dementia", ["edsd", "adni", "ppmi"], y=["p_tau"], **kwargs
    )
    result = service.wait_experiment(job_id)
    assert result.status.value == "success"
    return result


class TestClusterResultsAreEvicted:
    def test_no_step_result_survives_wait_experiment(self, fresh_federation, monkeypatch):
        cluster = fresh_federation.smpc_cluster
        step_ids: list[str] = []
        live_lookups: list[bool] = []
        real_aggregate = SMPCCluster.aggregate

        def recording_aggregate(self, job_id, noise=None):
            result = real_aggregate(self, job_id, noise)
            step_ids.append(job_id)
            # Within the experiment's lifetime the result stays retrievable.
            live_lookups.append(self.get_result(job_id) is result)
            return result

        monkeypatch.setattr(SMPCCluster, "aggregate", recording_aggregate)
        service = MIPService(fresh_federation, aggregation="smpc")
        try:
            first = _run(service)
            assert step_ids and all(live_lookups)
            assert all(step.startswith(first.experiment_id) for step in step_ids)
            assert not any(cluster.has_job(step) for step in step_ids)
            assert first.telemetry.smpc_rounds > 0  # the numbers outlive the meters
            for _ in range(3):
                _run(service)
            assert not any(cluster.has_job(step) for step in step_ids)
            assert cluster._results == {} and cluster._job_meters == {}
        finally:
            service.shutdown()

    def test_forget_jobs_is_prefix_scoped(self):
        cluster = SMPCCluster(n_nodes=3, seed=1)
        for job in ("exp1_s1", "exp1_s2", "exp10_s1"):
            cluster.import_shares(job, "w0", {"n": {"data": 1.0, "operation": "sum"}})
            cluster.import_shares(job, "w1", {"n": {"data": 2.0, "operation": "sum"}})
            cluster.aggregate(job)
        cluster.forget_jobs("exp1")
        assert not cluster.has_job("exp1_s1") and not cluster.has_job("exp1_s2")
        assert cluster.get_result("exp10_s1") == {"n": 3.0}
        assert cluster.job_communication("exp10").rounds > 0
        assert cluster.job_communication("exp1").rounds == 0


class TestMasterCatalogDoesNotGrow:
    def test_same_tables_after_one_and_twenty_plain_experiments(self, fresh_federation):
        service = MIPService(fresh_federation, aggregation="plain")
        database = fresh_federation.master.database
        try:
            _run(service)
            after_one = database.table_names()
            for _ in range(19):
                _run(service)
            assert database.table_names() == after_one
            assert not [t for t in after_one if t.startswith(("merge_", "remote_"))]
        finally:
            service.shutdown()


class TestWorkerCatalogDoesNotGrow:
    """Step tables and the experiment's data view both go at cleanup —
    whether the experiment succeeded, failed or was cancelled."""

    def test_same_tables_after_one_and_twenty_experiments(self, fresh_federation):
        service = MIPService(fresh_federation, aggregation="plain")
        master = fresh_federation.master
        workers = fresh_federation.workers
        real_step = master.run_local_step
        held_views: list[int] = []

        def tables():
            return {w: worker.database.table_names() for w, worker in workers.items()}

        def after_first_step(action):
            """Run the step for real, then ``action(experiment id)`` with its
            outputs and the workers' data views in place."""

            def run_local_step(step_id, udf_name, per_worker_arguments):
                outputs = real_step(step_id, udf_name, per_worker_arguments)
                held_views.append(
                    sum(t.startswith("view_") for ts in tables().values() for t in ts)
                )
                action(step_id.rsplit("_s", 1)[0])
                return outputs

            return run_local_step

        def fail(_experiment_id):
            raise FederationError("injected after the first local step")

        def submit(**kwargs):
            return service.run_experiment(
                "descriptive_stats", "dementia", ["edsd", "adni", "ppmi"], y=["p_tau"], **kwargs
            )

        try:
            _run(service)
            after_one = tables()
            assert after_one == {w: ["data_dementia"] for w in workers}
            for _ in range(17):
                _run(service)
            master.run_local_step = after_first_step(fail)
            failed = submit()
            assert failed.status.value == "error" and "injected" in failed.error
            assert tables() == after_one
            master.run_local_step = after_first_step(service.cancel_experiment)
            cancelled = submit()
            assert cancelled.status.value == "cancelled"
            assert held_views == [len(workers)] * 2
            assert tables() == after_one
        finally:
            master.run_local_step = real_step
            service.shutdown()
