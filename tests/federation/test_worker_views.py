"""The worker-resident data view: one scan per experiment, same privacy surface.

A worker scans a data view the first time an experiment binds it, keeps the
rows as a table the experiment owns, and hands every later step that table.
The per-step audit and threshold check, and everything the transport may
ship, stay as they were.
"""

import gc
import json
import weakref

import pytest

from repro.api.service import MIPService
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.errors import FederationError, PrivacyThresholdError, UDFError
from repro.federation.controller import FederationConfig, create_federation
from repro.federation.messages import Message
from repro.federation.serialization import table_from_payload
from repro.federation.worker import Worker
from repro.udfgen import relation, runtime, transfer, udf

import repro.algorithms  # noqa: F401

DATASETS = ("edsd", "adni", "ppmi", "aibl")
QUERY = "SELECT lefthippocampus FROM data_dementia WHERE lefthippocampus IS NOT NULL"
TOO_SMALL = "SELECT lefthippocampus FROM data_dementia WHERE lefthippocampus > 99"


@udf(data=relation(), return_type=[transfer()])
def view_total(data):
    return {"n": len(data), "total": float(data["lefthippocampus"].sum())}


@udf(data=relation(), return_type=[transfer()])
def view_total_then_scribble(data):
    column = data["lefthippocampus"]
    total = float(column.sum())
    column[:] = 0.0
    return {"n": len(data), "total": total}


@udf(data=relation(), return_type=[transfer()])
def view_matrix_total(data):
    return {"n": len(data), "total": float(data.to_matrix(["lefthippocampus"]).sum())}


def udf_name(func):
    return f"tests_federation_test_worker_views_{func.__name__}"


def send(worker, kind, **payload):
    return worker.handle(Message("master", worker.node_id, kind, payload))


def run_step(worker, experiment, step, query=QUERY, func=view_total):
    """One hand-built local step of ``experiment``; returns the transfer."""
    outputs = send(
        worker, "run_udf",
        job_id=f"{experiment}_s{step}",
        udf_name=udf_name(func),
        arguments={"data": {"kind": "view", "experiment": experiment, "query": query}},
    )["outputs"]
    assert [o["kind"] for o in outputs] == ["transfer"]
    table = table_from_payload(send(worker, "fetch_table", table=outputs[0]["table"])["table"])
    return json.loads(table.column("transfer")[0])


def data_scans(statements):
    return [s for s in statements if s.startswith("SELECT") and "FROM data_dementia" in s]


def record_statements(worker):
    """Every SQL statement the worker's engine executes from now on."""
    statements = []
    real = worker.database.execute

    def execute(sql, params=()):
        statements.append(sql)
        return real(sql, params)

    worker.database.execute = execute
    return statements


def record_stacks(monkeypatch):
    """A weak reference to every matrix the UDF boundary stacks from now on."""
    stacked = []
    real = runtime.stack_columns

    def stack_columns(columns, n_rows):
        matrix = real(columns, n_rows)
        stacked.append(weakref.ref(matrix))
        return matrix

    monkeypatch.setattr(runtime, "stack_columns", stack_columns)
    return stacked


def record_relations(monkeypatch, clear_first=False):
    """A weak reference to the relation every step binds from now on; with
    ``clear_first`` the table's cache is dropped before each bind."""
    bound = []
    real = runtime.Relation.of.__func__

    def of(cls, table):
        if clear_first:
            table.memo.clear()
        relation = real(cls, table)
        bound.append(weakref.ref(relation))
        return relation

    monkeypatch.setattr(runtime.Relation, "of", classmethod(of))
    return bound


def view_tables(worker):
    return [t for t in worker.database.table_names() if t.startswith("view_")]


def events(worker, name, job_id=None):
    return worker.audit.events(job_id=job_id, event=name)


@pytest.fixture()
def worker():
    w = Worker("hospital_x", privacy_threshold=10)
    w.load_data_model("dementia", generate_cohort(CohortSpec("edsd", 60, seed=5)))
    return w


@pytest.fixture()
def four_sites():
    data = {
        f"hospital_{index}": {"dementia": generate_cohort(CohortSpec(code, 150, seed=index))}
        for index, code in enumerate(DATASETS)
    }
    federation = create_federation(data, FederationConfig(seed=3))
    yield federation
    federation.shutdown()


class TestOneScanPerExperiment:
    @pytest.mark.parametrize(
        "algorithm, variables, parameters, local_steps",
        [
            # 6 Newton steps, then the confusion matrix.
            ("logistic_regression",
             {"y": ["converted_ad"], "x": ["p_tau", "lefthippocampus"]},
             {"max_iterations": 6, "tolerance": 0.0}, 7),
            # the bounding box, then 10 assignment steps.
            ("kmeans", {"y": ["ab_42", "p_tau"]},
             {"k": 3, "seed": 9, "iterations_max_number": 10, "e": 0.0}, 11),
        ],
    )
    def test_iterative_flow_scans_each_site_once(
        self, four_sites, algorithm, variables, parameters, local_steps
    ):
        statements = {w: record_statements(worker) for w, worker in four_sites.workers.items()}
        service = MIPService(four_sites, aggregation="plain")
        try:
            result = service.run_experiment(
                algorithm, "dementia", list(DATASETS), parameters=parameters, **variables
            )
        finally:
            service.shutdown()
        assert result.status.value == "success", result.error
        assert sorted(result.workers) == sorted(four_sites.workers)
        for node, worker in four_sites.workers.items():
            # At the parent commit: 14 and 22 (two scans per local step).
            assert len(data_scans(statements[node])) == 1
            # The audit still says what every step read and contributed.
            reads = events(worker, "dataset_read", result.experiment_id)
            contributed = events(worker, "rows_contributed", result.experiment_id)
            assert len(reads) == len(contributed) == local_steps
            assert len({e.job_id for e in reads}) == local_steps
            assert len({e.details["rows"] for e in reads + contributed}) == 1
            assert worker.database.table_names() == ["data_dementia"]

    def test_view_is_not_listed_and_later_steps_reuse_it(self, worker):
        statements = record_statements(worker)
        first = run_step(worker, "exp1", 1)
        second = run_step(worker, "exp1", 2)
        assert first == second and first["n"] > 10
        assert len(data_scans(statements)) == 1
        assert len(view_tables(worker)) == 1

    def test_a_hand_built_message_owns_its_view_by_step_id(self, worker):
        send(
            worker, "run_udf", job_id="job1", udf_name=udf_name(view_total),
            arguments={"data": {"kind": "view", "query": QUERY}},
        )
        assert len(view_tables(worker)) == 1
        send(worker, "cleanup", job_id="job1")
        assert worker.database.table_names() == ["data_dementia"]


class TestPrivacyThreshold:
    def test_small_view_is_rejected_on_every_step_and_never_kept(self, worker):
        statements = record_statements(worker)
        run_step(worker, "exp1", 1)
        for step in (2, 3):
            with pytest.raises(PrivacyThresholdError):
                run_step(worker, "exp1", step, query=TOO_SMALL)
        rejected = events(worker, "privacy_threshold_rejected", "exp1")
        assert [e.job_id for e in rejected] == ["exp1_s2", "exp1_s3"]
        assert [e.job_id for e in events(worker, "dataset_read", "exp1")] == [
            "exp1_s1", "exp1_s2", "exp1_s3",
        ]
        assert [e.job_id for e in events(worker, "rows_contributed", "exp1")] == ["exp1_s1"]
        # The rejected rows were scanned for each check and kept by neither.
        assert len(data_scans(statements)) == 3
        assert len(view_tables(worker)) == 1

    def test_rejected_first_step_through_the_service(self, four_sites):
        service = MIPService(four_sites, aggregation="plain")
        try:
            result = service.run_experiment(
                "descriptive_stats", "dementia", list(DATASETS), y=["p_tau"],
                filter_sql="agevalue > 200",
            )
        finally:
            service.shutdown()
        assert result.status.value == "error"
        assert "PrivacyThresholdError" in result.error
        for worker in four_sites.workers.values():
            assert worker.database.table_names() == ["data_dementia"]


class TestPrivacySurface:
    def test_the_transport_ships_no_view(self, worker):
        run_step(worker, "exp1", 1)
        (view,) = view_tables(worker)
        with pytest.raises(FederationError, match="denied"):
            send(worker, "fetch_table", table=view)
        with pytest.raises(FederationError, match="not a secure transfer"):
            send(worker, "get_secure_payload", table=view)

    def test_a_view_cannot_be_bound_as_a_step_table(self, worker):
        run_step(worker, "exp1", 1)
        (view,) = view_tables(worker)
        reads_before = len(events(worker, "dataset_read"))
        with pytest.raises(FederationError, match="not a known step output"):
            send(
                worker, "run_udf", job_id="exp1_s2", udf_name=udf_name(view_total),
                arguments={"data": {"kind": "table", "name": view}},
            )
        assert len(events(worker, "dataset_read")) == reads_before


class TestSnapshot:
    def test_a_udf_writing_into_its_input_does_not_reach_the_view(self, worker):
        first = run_step(worker, "exp1", 1)
        # The input is the view's own read-only arrays: the write fails.
        with pytest.raises(UDFError, match="read-only"):
            run_step(worker, "exp1", 2, func=view_total_then_scribble)
        third = run_step(worker, "exp1", 3)
        assert first["total"] != 0.0
        assert first == third

    def test_new_rows_reach_the_next_experiment_not_the_live_one(self, worker):
        before = run_step(worker, "exp1", 1)
        worker.load_data_model("dementia", generate_cohort(CohortSpec("adni", 40, seed=6)))
        assert run_step(worker, "exp1", 2) == before
        assert [e.details["rows"] for e in events(worker, "rows_contributed", "exp1")] == [
            before["n"], before["n"],
        ]
        after = run_step(worker, "exp2", 1)
        assert after["n"] > before["n"]


class TestOwnership:
    def test_experiments_with_the_same_query_own_separate_views(self, worker):
        statements = record_statements(worker)
        run_step(worker, "e1", 1)
        run_step(worker, "e10", 1)
        assert len(data_scans(statements)) == 2
        assert len(view_tables(worker)) == 2
        # Finishing e1 takes e1's view only; e10 goes on reading its own.
        send(worker, "cleanup", job_id="e1")
        assert len(view_tables(worker)) == 1
        run_step(worker, "e10", 2)
        assert len(data_scans(statements)) == 2
        send(worker, "cleanup", job_id="e10")
        assert worker.database.table_names() == ["data_dementia"]

    def test_concurrent_experiments_scan_once_each(self, four_sites):
        statements = {w: record_statements(worker) for w, worker in four_sites.workers.items()}
        service = MIPService(four_sites, aggregation="plain", pool_size=2)
        try:
            ids = [
                service.submit_experiment(
                    "kmeans", "dementia", list(DATASETS), y=["ab_42", "p_tau"],
                    parameters={"k": 3, "seed": 9, "iterations_max_number": 5},
                )
                for _ in range(2)
            ]
            results = [service.wait_experiment(job_id, timeout=120) for job_id in ids]
        finally:
            service.shutdown()
        assert [r.status.value for r in results] == ["success", "success"]
        assert results[0].result == results[1].result
        for node, worker in four_sites.workers.items():
            assert len(data_scans(statements[node])) == 2
            assert worker.database.table_names() == ["data_dementia"]


#: The iterative flows of TestOneScanPerExperiment, with their local steps.
ITERATIVE_FLOWS = [
    ("logistic_regression",
     {"y": ["converted_ad"], "x": ["p_tau", "lefthippocampus"]},
     {"max_iterations": 6, "tolerance": 0.0}, 7),
    ("kmeans", {"y": ["ab_42", "p_tau"]},
     {"k": 3, "seed": 9, "iterations_max_number": 10, "e": 0.0}, 11),
]


def run_plain(federation, algorithm, variables, parameters):
    service = MIPService(federation, aggregation="plain")
    try:
        result = service.run_experiment(
            algorithm, "dementia", list(DATASETS), parameters=parameters, **variables
        )
    finally:
        service.shutdown()
    assert result.status.value == "success", result.error
    return result


class TestStackOncePerExperiment:
    @pytest.mark.parametrize("algorithm, variables, parameters, local_steps", ITERATIVE_FLOWS)
    def test_each_site_stacks_its_matrix_once(
        self, four_sites, monkeypatch, algorithm, variables, parameters, local_steps
    ):
        sites = len(four_sites.workers)
        stacked = record_stacks(monkeypatch)
        bound = record_relations(monkeypatch)
        cached = run_plain(four_sites, algorithm, variables, parameters)
        assert len(bound) == sites * local_steps
        # Every site's first step has to stack: one stack per site in all.
        assert len(stacked) == sites

        monkeypatch.undo()
        stacked = record_stacks(monkeypatch)
        record_relations(monkeypatch, clear_first=True)
        uncached = run_plain(four_sites, algorithm, variables, parameters)
        assert len(stacked) == sites * local_steps
        assert json.dumps(uncached.result, sort_keys=True) == json.dumps(
            cached.result, sort_keys=True
        )


class TestCacheLifetime:
    def test_cleanup_leaves_no_cached_array(self, worker, monkeypatch):
        stacked = record_stacks(monkeypatch)
        bound = record_relations(monkeypatch)
        first = run_step(worker, "exp1", 1, func=view_matrix_total)
        assert run_step(worker, "exp1", 2, func=view_matrix_total) == first
        assert len(stacked) == 1 and bound[0]() is bound[1]()
        send(worker, "cleanup", job_id="exp1")
        gc.collect()
        assert [ref() for ref in bound + stacked] == [None, None, None]

    def test_experiments_with_the_same_query_own_separate_caches(self, worker, monkeypatch):
        stacked = record_stacks(monkeypatch)
        bound = record_relations(monkeypatch)
        run_step(worker, "e1", 1, func=view_matrix_total)
        run_step(worker, "e10", 1, func=view_matrix_total)
        assert len(stacked) == 2 and bound[0]() is not bound[1]()
        send(worker, "cleanup", job_id="e1")
        gc.collect()
        assert bound[0]() is None and stacked[0]() is None
        # e10 goes on reading the relation and matrix it built.
        run_step(worker, "e10", 2, func=view_matrix_total)
        assert len(stacked) == 2 and bound[2]() is bound[1]()
        send(worker, "cleanup", job_id="e10")
        gc.collect()
        assert all(ref() is None for ref in bound + stacked)
