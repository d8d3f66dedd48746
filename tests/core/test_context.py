"""Execution context: view compilation, handles, aggregation routing."""

import pytest

from repro.core.context import DataView, ExecutionContext
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, transfer, udf


@udf(data=relation(), scale=literal(), return_type=[secure_transfer()])
def ctx_local_step(data, scale):
    total = float(data.to_matrix().sum()) * scale
    return {"total": {"data": total, "operation": "sum"}}


@udf(data=relation(), return_type=[transfer()])
def ctx_plain_step(data):
    return {"n": len(data)}


@udf(aggregates=transfer(), return_type=[transfer()])
def ctx_global_step(aggregates):
    return {"doubled": aggregates["total"] * 2}


@udf(data=relation(), scale=transfer(), return_type=[secure_transfer()])
def ctx_scaled_step(data, scale):
    total = float(data.to_matrix().sum()) * scale["doubled"]
    return {"total": {"data": total, "operation": "sum"}}


@pytest.fixture()
def context(federation):
    return ExecutionContext(
        federation.master,
        "dementia",
        {"hospital_a": ["edsd"], "hospital_b": ["adni"]},
        aggregation="smpc",
    )


class TestViewQuery:
    def test_dataset_filter_and_dropna(self, context):
        query = context.view_query(DataView.of(("p_tau", "agevalue")), "hospital_a")
        assert "dataset IN ('edsd')" in query
        assert "p_tau IS NOT NULL" in query
        assert "agevalue IS NOT NULL" in query

    def test_dropna_false(self, context):
        query = context.view_query(DataView.of(("p_tau",), dropna=False), "hospital_a")
        assert "IS NOT NULL" not in query

    def test_experiment_filter_appended(self, federation):
        context = ExecutionContext(
            federation.master, "dementia", {"hospital_a": ["edsd"]},
            filter_sql="agevalue > 70",
        )
        query = context.view_query(DataView.of(("p_tau",)), "hospital_a")
        assert "(agevalue > 70)" in query

    def test_unknown_aggregation_mode(self, federation):
        with pytest.raises(AlgorithmError):
            ExecutionContext(
                federation.master, "dementia", {"hospital_a": ["edsd"]},
                aggregation="homeopathic",
            )

    def test_no_workers(self, federation):
        with pytest.raises(AlgorithmError):
            ExecutionContext(federation.master, "dementia", {})


class TestLocalRun:
    def test_handles_per_output(self, context):
        secure_handle = context.local_run(
            ctx_local_step,
            {"data": DataView.of(("lefthippocampus",)), "scale": 1.0},
            share_to_global=[True],
        )
        assert secure_handle.kind == "secure_transfer"
        assert secure_handle.shared_to_global
        assert set(secure_handle.workers) == {"hospital_a", "hospital_b"}

    def test_share_flag_count_checked(self, context):
        with pytest.raises(AlgorithmError, match="share_to_global"):
            context.local_run(
                ctx_local_step,
                {"data": DataView.of(("lefthippocampus",)), "scale": 1.0},
                share_to_global=[True, True],
            )


class TestGlobalRun:
    def test_smpc_aggregation_into_global_step(self, context):
        handle = context.local_run(
            ctx_local_step,
            {"data": DataView.of(("lefthippocampus",)), "scale": 1.0},
            share_to_global=[True],
        )
        global_handle = context.global_run(
            ctx_global_step, {"aggregates": handle}, share_to_locals=[False]
        )
        result = context.get_transfer_data(global_handle)
        assert result["doubled"] > 0

    def test_unshared_local_rejected(self, context):
        handle = context.local_run(
            ctx_local_step,
            {"data": DataView.of(("lefthippocampus",)), "scale": 1.0},
            share_to_global=[False],
        )
        with pytest.raises(AlgorithmError, match="not shared"):
            context.global_run(ctx_global_step, {"aggregates": handle}, [False])

    def test_plain_transfer_not_aggregated(self, context):
        # A plain transfer is read with get_transfer_data; only a secure
        # transfer aggregates into a global step's transfer() input.
        handle = context.local_run(
            ctx_plain_step,
            {"data": DataView.of(("lefthippocampus",))},
            share_to_global=[True],
        )
        with pytest.raises(AlgorithmError, match="aggregates a secure_transfer"):
            context.global_run(ctx_global_step, {"aggregates": handle}, [False])


class TestBroadcast:
    """``share_to_locals=[True]``: a global output the next local step reads."""

    def test_shared_global_output_reaches_every_worker_once(self, context, federation):
        view = DataView.of(("lefthippocampus",))
        handle = context.local_run(
            ctx_local_step, {"data": view, "scale": 1.0}, share_to_global=[True],
        )
        total = context.get_transfer_data(handle)["total"]
        global_handle = context.global_run(
            ctx_global_step, {"aggregates": handle}, share_to_locals=[True]
        )
        for _ in range(2):
            scaled = context.local_run(
                ctx_scaled_step, {"data": view, "scale": global_handle}, [True]
            )
            assert context.get_transfer_data(scaled)["total"] == pytest.approx(
                total * total * 2
            )
        kinds = [node.kind for node in context.plan.nodes]
        assert kinds.count("broadcast") == 1
        for worker in context.workers:
            received = federation.workers[worker].audit.events(
                job_id=context.job_id, event="transfer_received"
            )
            assert len(received) == 1
        context.cleanup()


class TestGetTransferData:
    def test_local_secure_aggregated(self, context):
        handle = context.local_run(
            ctx_local_step,
            {"data": DataView.of(("lefthippocampus",)), "scale": 1.0},
            share_to_global=[True],
        )
        aggregated = context.get_transfer_data(handle)
        assert aggregated["total"] > 0

    def test_local_plain_returns_list(self, context):
        handle = context.local_run(
            ctx_plain_step,
            {"data": DataView.of(("lefthippocampus",))},
            share_to_global=[True],
        )
        transfers = context.get_transfer_data(handle)
        assert isinstance(transfers, list)
        assert len(transfers) == 2

    def test_non_handle_rejected(self, context):
        with pytest.raises(AlgorithmError):
            context.get_transfer_data({"not": "a handle"})


class TestPlainVsSecureAgreement:
    def test_same_aggregate_on_both_paths(self, federation):
        results = {}
        for mode in ("smpc", "plain"):
            context = ExecutionContext(
                federation.master, "dementia",
                {"hospital_a": ["edsd"], "hospital_b": ["adni"]},
                aggregation=mode,
            )
            handle = context.local_run(
                ctx_local_step,
                {"data": DataView.of(("lefthippocampus",)), "scale": 1.0},
                share_to_global=[True],
            )
            results[mode] = context.get_transfer_data(handle)["total"]
        assert results["smpc"] == pytest.approx(results["plain"], abs=1e-3)
