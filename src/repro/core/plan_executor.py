"""Plan execution: each recorded flow-plan node runs inline, in record order.

:class:`PlanExecutor` runs the flow-plan IR recorded by the
:class:`~repro.core.context.ExecutionContext`.  :meth:`PlanExecutor.submit`
executes a node before it returns, on the experiment's own thread, so a
flow is exactly the paper's chain (§2, Figure 2): a local step, an
aggregate, a global step, a read, repeat.  No registered algorithm ever has
two plan nodes in flight — every pair of independent nodes sits behind a
forced read — which is why there is no scheduler here
(docs/ARCHITECTURE.md §14 has the measurement).

The one deferred case is checkpoint replay: while a resumed experiment
re-walks its recorded prefix, nodes are submitted as *ghosts* that never
run unless a live node past the replayed frontier references them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.plan import (
    BarrierNode,
    BroadcastNode,
    GlobalStepNode,
    LocalStepNode,
    PlainAggregateNode,
    PlanArg,
    PlanNode,
    SecureAggregateNode,
)
from repro.errors import AlgorithmError
from repro.observability.trace import tracer
from repro.simtest import hooks as sim_hooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import ExecutionContext


class _NodeState:
    __slots__ = ("node", "result", "parent_span", "ghost")

    def __init__(self, node: PlanNode, parent_span, ghost: bool = False) -> None:
        self.node = node
        self.result: Any = None
        self.parent_span = parent_span
        #: Checkpoint replay: a ghost node is recorded in the plan but has
        #: not run — its value either arrives from the resume log
        #: (:meth:`PlanExecutor.set_replayed`) or it materializes when a
        #: live node references it.  Either way it stops being a ghost.
        self.ghost = ghost


class PlanExecutor:
    """Runs flow-plan nodes for one experiment's context."""

    def __init__(self, context: "ExecutionContext") -> None:
        self.ctx = context
        self._states: dict[int, _NodeState] = {}

    # ------------------------------------------------------------- submission

    def submit(self, node: PlanNode) -> None:
        """Run a freshly recorded node; a failure propagates to the flow."""
        state = self._states[node.node_id] = _NodeState(node, tracer.current())
        sim = sim_hooks.current()
        if sim is not None:
            sim.plan_node(f"{node.kind}:n{node.node_id}")
        self._run_node(state)

    def submit_ghost(self, node: PlanNode) -> None:
        """Record a node during checkpoint replay without executing it.

        Replay answers the flow's reads from the recorded frontier, so the
        steps behind those reads must not re-run (their side effects —
        worker tables, SMPC traffic, privacy spend — already happened in a
        previous life).  A ghost that a post-replay *live* node references
        materializes on demand via :meth:`_ensure`.
        """
        self._states[node.node_id] = _NodeState(node, tracer.current(), ghost=True)

    def set_replayed(self, node_id: int, value: Any) -> None:
        """Resolve a ghost read node to its checkpointed value."""
        state = self._states[node_id]
        state.result = value
        state.ghost = False

    def _ensure(self, node_id: int) -> _NodeState:
        """The node's state, materialized if it is still an unrun ghost."""
        state = self._states[node_id]
        if state.ghost:
            # Materializing binds the node's arguments, which recurses into
            # _ensure for its referenced ghosts — only the true data
            # dependencies re-execute, never the whole recorded prefix.
            state.ghost = False
            self._run_node(state)
        return state

    def result(self, node_id: int, index: int | None = None) -> Any:
        """One node's result (a handle's table map, a read's value)."""
        value = self._ensure(node_id).result
        return value if index is None else value[index]

    # The ladder's traced pass (benchmarks/ladder/tracing.py) wraps these two
    # names; nothing calls them, because nothing is ever left in flight.

    def flush(self) -> None:
        """Nothing to wait for: every submitted node ran inside ``submit``."""

    def close(self) -> None:
        """Nothing to quiesce: the executor owns no thread."""

    # -------------------------------------------------------------- execution

    def _run_node(self, state: _NodeState) -> None:
        node = state.node
        if isinstance(node, LocalStepNode):
            state.result = self._exec_local_step(node, state)
        elif isinstance(node, BroadcastNode):
            state.result = self._exec_broadcast(node, state)
        elif isinstance(node, SecureAggregateNode):
            state.result = self._exec_secure_aggregate(node, state)
        elif isinstance(node, PlainAggregateNode):
            state.result = self._exec_plain_aggregate(node, state)
        elif isinstance(node, GlobalStepNode):
            state.result = self._exec_global_step(node, state)
        elif isinstance(node, BarrierNode):
            state.result = self._exec_barrier(node, state)
        else:  # pragma: no cover - the IR is closed
            raise AlgorithmError(f"unknown plan node {type(node).__name__}")

    # ------------------------------------------------------------ local steps

    def _exec_local_step(
        self, node: LocalStepNode, state: _NodeState
    ) -> list[dict[str, Any]]:
        ctx = self.ctx
        with tracer.span(
            "flow.local_step",
            parent=state.parent_span,
            step=node.step_id,
            udf=node.udf,
            workers=len(ctx.workers),
        ) as span:
            per_worker: dict[str, dict[str, Any]] = {}
            for worker in ctx.workers:
                arguments: dict[str, Any] = {}
                for pname, arg in node.args:
                    arguments[pname] = self._bind_local(arg, pname, worker)
                per_worker[worker] = arguments
            results = ctx.master.run_local_step(node.step_id, node.udf, per_worker)
            lost = [worker for worker in ctx.workers if worker not in results]
            if lost:
                span.set_attribute("evicted", sorted(lost))
                ctx._evict(lost, node.step_id)
            outputs: list[dict[str, Any]] = []
            for index in range(len(node.out_kinds)):
                tables = {
                    worker: results[worker][index]["table"] for worker in ctx.workers
                }
                kind = results[ctx.workers[0]][index]["kind"]
                outputs.append({"kind": kind, "tables": tables})
            return outputs

    def _bind_local(self, arg: PlanArg, pname: str, worker: str) -> dict[str, Any]:
        ctx = self.ctx
        if arg.kind == "view":
            return {
                "kind": "view",
                # The worker keeps one scan of the view per experiment.
                "experiment": ctx.job_id,
                "query": ctx.view_query(arg.view, worker),
                "variables": list(arg.view.variables),
                "datasets": list(ctx.worker_datasets[worker]),
            }
        if arg.kind == "literal":
            return {"kind": "literal", "value": arg.value}
        # A reference: either an upstream local step's output slot or a
        # broadcast node's placement map.
        assert arg.ref is not None
        upstream = self._ensure(arg.ref.node_id)
        tables: Mapping[str, str] = (
            upstream.result
            if isinstance(upstream.node, BroadcastNode)
            else upstream.result[arg.ref.index]["tables"]
        )
        if worker not in tables:
            raise AlgorithmError(
                f"parameter {pname!r}: no local table for worker {worker!r}"
            )
        return {"kind": "table", "name": tables[worker]}

    # -------------------------------------------------------------- broadcast

    def _exec_broadcast(self, node: BroadcastNode, state: _NodeState) -> dict[str, str]:
        ctx = self.ctx
        table = self._resolve_global_table(node.source)
        with tracer.span(
            "flow.broadcast", parent=state.parent_span, table=table
        ):
            missing = [
                w for w in ctx.workers if (table, w) not in ctx._broadcasts
            ]
            if missing:
                placed = ctx.master.broadcast_transfer(ctx.job_id, table, missing)
                for worker, remote_table in placed.items():
                    ctx._broadcasts[(table, worker)] = remote_table
                lost = [worker for worker in missing if worker not in placed]
                if lost:
                    ctx._evict(lost, node.step_id or f"{ctx.job_id}_bcast")
            return {
                worker: ctx._broadcasts[(table, worker)]
                for worker in ctx.workers
                if (table, worker) in ctx._broadcasts
            }

    # ------------------------------------------------------------- aggregates

    def _resolve_local_tables(self, source: PlanArg) -> dict[str, str]:
        assert source.ref is not None
        output = self._ensure(source.ref.node_id).result[source.ref.index]
        return dict(output["tables"])

    def _resolve_global_table(self, source: PlanArg) -> str:
        assert source.ref is not None
        return self._ensure(source.ref.node_id).result[source.ref.index]["table"]

    def _exec_secure_aggregate(self, node: SecureAggregateNode, state: _NodeState):
        ctx = self.ctx
        with tracer.span(
            "flow.aggregate", parent=state.parent_span, step=node.gather_id,
            mode="secure", path=node.path,
        ):
            tables = self._resolve_local_tables(node.source)
            if node.path == "smpc":
                aggregated = ctx.master.gather_transfers_secure(
                    node.gather_id, tables, noise=ctx.noise
                )
            else:
                from repro.federation.aggregation import aggregate_plain

                transfers = ctx.master.gather_transfers_plain(node.gather_id, tables)
                aggregated = aggregate_plain(transfers)
            if node.store_id is None:
                return aggregated
            return ctx.master.store_global_transfer(node.store_id, aggregated)

    def _exec_plain_aggregate(self, node: PlainAggregateNode, state: _NodeState):
        ctx = self.ctx
        with tracer.span(
            "flow.aggregate", parent=state.parent_span, step=node.gather_id,
            mode="plain",
        ):
            tables = self._resolve_local_tables(node.source)
            transfers = ctx.master.gather_transfers_plain(node.gather_id, tables)
            if not node.store:
                return transfers
            return [
                ctx.master.store_global_transfer(node.gather_id, transfer)
                for transfer in transfers
            ]

    # ------------------------------------------------------------ global step

    def _exec_global_step(
        self, node: GlobalStepNode, state: _NodeState
    ) -> list[dict[str, str]]:
        ctx = self.ctx
        with tracer.span(
            "flow.global_step", parent=state.parent_span,
            step=node.step_id, udf=node.udf,
        ):
            arguments: dict[str, Any] = {}
            for pname, arg in node.args:
                arguments[pname] = self._bind_global(arg)
            return ctx.master.run_global_step(node.step_id, node.udf, arguments)

    def _bind_global(self, arg: PlanArg) -> Any:
        if arg.kind == "literal":
            return arg.value
        assert arg.ref is not None
        upstream = self._ensure(arg.ref.node_id)
        if isinstance(upstream.node, (SecureAggregateNode, PlainAggregateNode)):
            return upstream.result
        return upstream.result[arg.ref.index]["table"]

    # ---------------------------------------------------------------- barrier

    def _exec_barrier(self, node: BarrierNode, state: _NodeState) -> dict[str, Any]:
        table = self._resolve_global_table(node.source)
        with tracer.span("flow.barrier", parent=state.parent_span, table=table):
            return self.ctx.master.read_transfer(table)
