"""The flow-plan IR: node taxonomy, rendering, fingerprint helpers."""

import json

import pytest

from repro.core.experiment import ExperimentRequest
from repro.core.plan import (
    BarrierNode,
    BroadcastNode,
    FlowPlan,
    GlobalStepNode,
    LocalStepNode,
    PlainAggregateNode,
    PlanArg,
    SecureAggregateNode,
    ValueRef,
    canonical_fingerprint,
    topological_order,
)
from repro.core.context import DataView
from repro.core.runner import ExperimentRunner


def build_sample_plan() -> FlowPlan:
    """A hand-built two-step flow: local -> aggregate -> global -> barrier."""
    plan = FlowPlan("job42")
    plan.add(LocalStepNode(
        node_id=plan.next_id(), deps=(),
        step_id="job42_s1", udf="fit_local",
        args=(("data", PlanArg("view", view=DataView.of(("age", "volume")))),
              ("mu", PlanArg("literal", value=1.5))),
        share=(True,), out_kinds=("secure_transfer",),
    ))
    plan.add(SecureAggregateNode(
        node_id=plan.next_id(), deps=(1,),
        gather_id="job42_s2_params", store_id="job42_s2",
        source=PlanArg("ref", ref=ValueRef(1, 0)), path="smpc",
    ))
    plan.add(GlobalStepNode(
        node_id=plan.next_id(), deps=(2,),
        step_id="job42_s2", udf="fit_global",
        args=(("params", PlanArg("ref", ref=ValueRef(2, 0))),),
        share=(True,), out_kinds=("transfer",),
    ))
    plan.add(BarrierNode(
        node_id=plan.next_id(), deps=(3,),
        source=PlanArg("ref", ref=ValueRef(3, 0)),
    ))
    return plan


class TestPlanStructure:
    def test_ids_edges_and_lookup(self):
        plan = build_sample_plan()
        assert len(plan) == 4
        assert [n.node_id for n in plan.nodes] == [1, 2, 3, 4]
        assert list(plan.edges()) == [(1, 2), (2, 3), (3, 4)]
        assert plan.node(3).kind == "global_step"

    def test_kind_tags(self):
        plan = build_sample_plan()
        kinds = [node.kind for node in plan.nodes]
        assert kinds == ["local_step", "secure_aggregate", "global_step", "barrier"]
        assert BroadcastNode(node_id=9, deps=()).kind == "broadcast"
        assert PlainAggregateNode(node_id=9, deps=()).kind == "plain_aggregate"

    def test_topological_order_is_record_order(self):
        plan = build_sample_plan()
        ordered = topological_order(list(reversed(plan.nodes)))
        assert [n.node_id for n in ordered] == [1, 2, 3, 4]


class TestRenderers:
    def test_to_json_scrubs_job_id(self):
        plan = build_sample_plan()
        text = json.dumps(plan.to_json())
        assert "job42" not in text
        assert "$job_s1" in text

    def test_to_json_shape(self):
        rendered = build_sample_plan().to_json()
        assert {entry["kind"] for entry in rendered["nodes"]} == {
            "local_step", "secure_aggregate", "global_step", "barrier"
        }
        local = rendered["nodes"][0]
        assert local["args"]["mu"] == {"literal": 1.5}
        assert local["share"] == [True]
        assert rendered["edges"] == [[1, 2], [2, 3], [3, 4]]

    def test_render_tree(self):
        text = build_sample_plan().render_tree()
        assert text.startswith("flow plan: 4 nodes")
        assert "n1 [local_step] udf=fit_local" in text
        assert "[secure_aggregate] mode=secure" in text

    def test_to_dot(self):
        text = build_sample_plan().to_dot()
        assert text.startswith("digraph flow_plan {")
        assert "n1 -> n2;" in text
        assert 'shape=box' in text

    def test_arg_summaries(self):
        assert PlanArg("ref", ref=ValueRef(7, 1)).summary() == {"ref": "n7[1]"}
        assert PlanArg("literal", value=[1, 2]).summary() == {"literal": [1, 2]}
        big = PlanArg("literal", value=list(range(200))).summary()
        assert set(big) == {"literal_sha256"}


class TestFingerprintHelpers:
    def test_canonical_fingerprint_is_order_independent(self):
        a = canonical_fingerprint({"x": 1, "y": [2, 3]})
        b = canonical_fingerprint({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 64

    def test_canonical_fingerprint_distinguishes_payloads(self):
        assert canonical_fingerprint({"x": 1}) != canonical_fingerprint({"x": 2})


class TestRecordedPlans:
    _seq = iter(range(1000))

    @pytest.fixture()
    def recorded(self, federation):
        runner = ExperimentRunner(federation, aggregation="plain")
        request = ExperimentRequest(
            algorithm="linear_regression",
            data_model="dementia",
            datasets=("edsd", "adni", "ppmi"),
            y=("lefthippocampus",),
            x=("agevalue",),
        )
        info = {}
        runner.execute(request, f"planrec{next(self._seq)}", info=info)
        return info["plan"]

    def test_flow_recorded_as_dag(self, recorded):
        kinds = [node.kind for node in recorded.nodes]
        assert "local_step" in kinds
        assert "barrier" in kinds
        # Record order is topological: every dependency precedes its node.
        for node in recorded.nodes:
            assert all(dep < node.node_id for dep in node.deps)

    def test_recorded_plan_renders_everywhere(self, recorded):
        assert "planrec" not in json.dumps(recorded.to_json())
        assert recorded.render_tree()
        assert recorded.to_dot().endswith("}")
