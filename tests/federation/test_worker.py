"""Worker-node behaviour, especially the privacy rules."""

import pytest

from repro.data.cohorts import CohortSpec, generate_cohort
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import FederationError, PrivacyThresholdError
from repro.federation.messages import Message
from repro.federation.serialization import table_from_payload
from repro.federation.worker import Worker
from repro.udfgen import literal, relation, secure_transfer, transfer, udf


@udf(data=relation(), return_type=[transfer()])
def worker_test_step(data):
    return {"total": float(data.to_matrix().sum())}


@udf(data=relation(), return_type=[secure_transfer()])
def worker_secure_step(data):
    return {"total": {"data": float(data.to_matrix().sum()), "operation": "sum"}}


def send(worker, kind, **payload):
    return worker.handle(Message("master", worker.node_id, kind, payload))


@pytest.fixture()
def worker():
    w = Worker("hospital_x", privacy_threshold=10)
    w.load_data_model("dementia", generate_cohort(CohortSpec("edsd", 60, seed=5)))
    return w


def run_step(worker, job="job1", **path):
    """Run the transfer step, then the secure step, over one data view:
    their outputs, in that order.  ``aggregation="plain"`` runs both for
    the plain path."""
    return [
        output
        for name in ("worker_test_step", "worker_secure_step")
        for output in send(
            worker, "run_udf",
            job_id=job,
            udf_name=f"tests_federation_test_worker_{name}",
            arguments={"data": {"kind": "view",
                                "query": "SELECT lefthippocampus FROM data_dementia"}},
            **path,
        )["outputs"]
    ]


class TestDataLoading:
    def test_datasets_tracked(self, worker):
        assert worker.datasets() == {"dementia": ["edsd"]}
        assert send(worker, "list_datasets")["datasets"] == {"dementia": ["edsd"]}

    def test_requires_dataset_column(self):
        w = Worker("h")
        table = Table.from_rows(Schema([("v", SQLType.INT)]), [(1,)])
        with pytest.raises(FederationError, match="dataset"):
            w.load_data_model("m", table)

    def test_appending_second_dataset(self, worker):
        worker.load_data_model("dementia", generate_cohort(CohortSpec("adni", 30, seed=6)))
        assert worker.datasets()["dementia"] == ["adni", "edsd"]

    def test_ping(self, worker):
        assert send(worker, "ping")["status"] == "up"


class TestRunUDF:
    def test_outputs_typed(self, worker):
        outputs = run_step(worker)
        assert [o["kind"] for o in outputs] == ["transfer", "secure_transfer"]

    def test_privacy_threshold_enforced(self, worker):
        with pytest.raises(PrivacyThresholdError):
            send(
                worker, "run_udf",
                job_id="j",
                udf_name="tests_federation_test_worker_worker_test_step",
                arguments={"data": {"kind": "view",
                                    "query": "SELECT lefthippocampus FROM data_dementia "
                                             "WHERE lefthippocampus > 99"}},
            )

    def test_chained_table_argument_must_be_known(self, worker):
        with pytest.raises(FederationError, match="not a known step output"):
            send(
                worker, "run_udf",
                job_id="j",
                udf_name="tests_federation_test_worker_worker_test_step",
                arguments={"data": {"kind": "table", "name": "data_dementia"}},
            )

    def test_unknown_message_kind(self, worker):
        with pytest.raises(FederationError):
            send(worker, "format_disk")


class TestPrivacyRules:
    def test_state_never_leaves(self, worker):
        # The data view a step read stays resident on the worker, and no
        # handler ships it.
        run_step(worker)
        (view_table,) = [
            name for name in worker.database.table_names() if name.startswith("view_")
        ]
        with pytest.raises(FederationError, match="denied"):
            send(worker, "fetch_table", table=view_table)
        with pytest.raises(FederationError, match="not a secure transfer"):
            send(worker, "get_secure_payload", table=view_table)

    def test_primary_data_not_fetchable(self, worker):
        with pytest.raises(FederationError, match="not an exposed step output"):
            send(worker, "fetch_table", table="data_dementia")
        with pytest.raises(FederationError, match="not an exposed step output"):
            send(worker, "get_secure_payload", table="data_dementia")

    def test_transfer_fetchable(self, worker):
        transfer_table = run_step(worker)[0]["table"]
        table = table_from_payload(send(worker, "fetch_table", table=transfer_table)["table"])
        assert "total" in table.column("transfer")[0]

    def test_secure_transfer_needs_smpc(self, worker):
        secure_table = run_step(worker)[1]["table"]
        with pytest.raises(FederationError, match="SMPC"):
            send(worker, "fetch_table", table=secure_table)
        payload = send(worker, "get_secure_payload", table=secure_table)["payload"]
        assert payload["total"]["operation"] == "sum"

    def test_no_requester_can_fetch_a_secure_transfer_in_the_clear(self, worker):
        # Whether a secure transfer may leave in the clear is fixed when its
        # step runs; no flag on a later request reopens it.
        secure_table = run_step(worker)[1]["table"]
        with pytest.raises(FederationError, match="cannot handle message kind"):
            send(worker, "get_transfer", table=secure_table, allow_insecure=True)
        with pytest.raises(FederationError, match="SMPC"):
            send(worker, "fetch_table", table=secure_table, allow_insecure=True,
                 aggregation="plain")
        assert not worker.audit.events(event="aggregate_shared")

    def test_plain_step_secure_transfer_is_fetchable(self, worker):
        secure_table = run_step(worker, aggregation="plain")[1]["table"]
        table = table_from_payload(send(worker, "fetch_table", table=secure_table)["table"])
        assert '"operation": "sum"' in table.to_rows()[0][0]

    def test_unknown_aggregation_path_rejected(self, worker):
        with pytest.raises(FederationError, match="unknown aggregation path"):
            run_step(worker, aggregation="clear")

    def test_no_requester_can_count_rows_of_primary_data(self, worker):
        # A count below the privacy threshold, with no audit event, would
        # single out patients.
        before = len(worker.audit)
        with pytest.raises(FederationError, match="cannot handle message kind"):
            send(worker, "row_count",
                 query="SELECT lefthippocampus FROM data_dementia WHERE lefthippocampus > 99")
        assert len(worker.audit) == before

    def test_get_secure_payload_rejects_plain_transfer(self, worker):
        transfer_table = run_step(worker)[0]["table"]
        with pytest.raises(FederationError, match="not a secure transfer"):
            send(worker, "get_secure_payload", table=transfer_table)


class TestLifecycle:
    def test_cleanup_drops_job_tables(self, worker):
        outputs = run_step(worker, job="to_clean")
        dropped = send(worker, "cleanup", job_id="to_clean")["dropped"]
        assert {o["table"] for o in outputs} <= set(dropped)
        assert not worker.database.has_table(outputs[0]["table"])

    def test_cleanup_matches_prefixed_steps(self, worker):
        outputs = run_step(worker, job="exp1_s3")
        dropped = send(worker, "cleanup", job_id="exp1")["dropped"]
        assert {o["table"] for o in outputs} <= set(dropped)

    def test_put_transfer_roundtrip(self, worker):
        send(worker, "put_transfer", job_id="j", table="bcast_1", blob='{"k": 1}')
        assert worker.database.scalar("SELECT * FROM bcast_1") == '{"k": 1}'
        with pytest.raises(FederationError, match="already exists"):
            send(worker, "put_transfer", job_id="j", table="bcast_1", blob="{}")
