"""Dependency-driven plan execution and cross-experiment step dedup.

:class:`PlanExecutor` runs the flow-plan IR recorded by the
:class:`~repro.core.context.ExecutionContext`:

- ``mode="eager"`` executes each node inline at record time — the
  imperative-equivalent reference path (and the forced mode under an
  active simulation, where scheduling must stay cooperative),
- ``mode="pipeline"`` dispatches every node the moment it is submitted:
  each node runs on its own daemon thread that first waits for its
  dependency edges, so independent local steps in one flow overlap on the
  shared transport fan-out pool while handles materialize only at true
  data dependencies.

Both modes run the *same* node bodies and emit the same span shapes, which
is what makes the plan/imperative equivalence suite a byte-level check.

:class:`StepCache` adds cross-experiment dedup: local-step nodes are
fingerprinted (UDF identity + canonical bound args + data view + worker
set + catalog epoch; references contribute upstream fingerprints, never
physical table names) and identical steps submitted by concurrent
experiments share one computation.  In-flight dedup means seven of eight
identical concurrent experiments wait on the first instead of recomputing.
Cached worker tables are refcounted: the owner's cleanup retains them
while any entry is live, and entries die on catalog-epoch change or LRU
capacity pressure.
"""

from __future__ import annotations

import contextvars
import threading
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
    canonical_fingerprint,
    literal_key,
    source_hash,
)
from repro.errors import AlgorithmError, ExperimentCancelledError
from repro.federation import transport as transport_mod
from repro.observability import profiler as profiler_mod
from repro.observability.trace import tracer
from repro.simtest import hooks as sim_hooks
from repro.udfgen.decorators import udf_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import ExecutionContext

#: How often a blocked cache waiter re-checks its experiment's cancel flag.
_WAIT_POLL_SECONDS = 0.05

DEFAULT_CACHE_CAPACITY = 128


# --------------------------------------------------------------- step cache


class _CacheEntry:
    __slots__ = (
        "fingerprint", "state", "event", "owner", "outputs",
        "refs", "epoch", "seq",
    )

    COMPUTING = "computing"
    READY = "ready"

    def __init__(self, fingerprint: str, owner: str, epoch: int, seq: int) -> None:
        self.fingerprint = fingerprint
        self.state = self.COMPUTING
        self.event = threading.Event()
        self.owner = owner
        self.outputs: list[dict[str, Any]] | None = None
        self.refs: set[str] = {owner}
        self.epoch = epoch
        self.seq = seq

    def tables(self) -> dict[str, list[str]]:
        """Every worker table this entry pins, keyed by worker."""
        pinned: dict[str, list[str]] = {}
        for output in self.outputs or ():
            for worker, table in output["tables"].items():
                pinned.setdefault(worker, []).append(table)
        return pinned


class _Claim:
    __slots__ = ("hit", "outputs", "owner")

    def __init__(self, hit: bool, outputs=None, owner: str | None = None) -> None:
        self.hit = hit
        self.outputs = outputs
        self.owner = owner


class StepCache:
    """Cross-experiment local-step result cache (fingerprint keyed).

    One instance lives on each :class:`~repro.federation.controller.Federation`;
    every runner against that federation shares it.  Hit/miss totals feed
    the unified metrics registry (``repro_plan_cache_hits_total`` /
    ``repro_plan_cache_misses_total``).
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._entries: dict[str, _CacheEntry] = {}
        self._seq = 0
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def acquire(
        self,
        fingerprint: str,
        job_id: str,
        cancel_event: threading.Event | None = None,
    ) -> _Claim:
        """Claim ownership of a fingerprint or wait for/receive its result.

        Returns a hit claim (with the cached outputs) or a miss claim — the
        caller then computes and must :meth:`publish` or :meth:`fail`.
        A waiter blocked on another experiment's in-flight computation keeps
        observing its own cancel flag.
        """
        while True:
            with self._lock:
                entry = self._entries.get(fingerprint)
                if entry is None:
                    self._seq += 1
                    self._entries[fingerprint] = _CacheEntry(
                        fingerprint, job_id, epoch=-1, seq=self._seq
                    )
                    self.misses += 1
                    return _Claim(hit=False)
                if entry.state == _CacheEntry.READY:
                    entry.refs.add(job_id)
                    self.hits += 1
                    return _Claim(hit=True, outputs=entry.outputs, owner=entry.owner)
                event = entry.event
            # In-flight dedup: another experiment is computing this very
            # step.  Wait for it (polling our own cancellation), then loop:
            # on publish we hit; on failure the entry is gone and we own it.
            while not event.wait(_WAIT_POLL_SECONDS):
                if cancel_event is not None and cancel_event.is_set():
                    raise ExperimentCancelledError(
                        f"experiment {job_id} was cancelled mid-flow"
                    )

    def publish(
        self, fingerprint: str, job_id: str, outputs: list[dict[str, Any]], epoch: int
    ) -> None:
        """Complete a claimed computation; wakes every in-flight waiter."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or entry.owner != job_id:
                return
            entry.outputs = outputs
            entry.epoch = epoch
            entry.state = _CacheEntry.READY
            entry.event.set()

    def fail(self, fingerprint: str, job_id: str) -> None:
        """Abandon a claimed computation; waiters recompute for themselves."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or entry.owner != job_id or entry.state == _CacheEntry.READY:
                return
            del self._entries[fingerprint]
            entry.event.set()

    def release_job(
        self, job_id: str, epoch: int
    ) -> tuple[list[str], dict[str, list[str]]]:
        """Drop a finished experiment's references; sweep dead entries.

        Returns ``(keep, drops)``: ``keep`` is the table names the
        experiment's own cleanup must retain (they back live cache
        entries); ``drops`` maps worker id to cached tables whose entries
        just died (stale epoch or LRU overflow) and must be dropped
        explicitly.
        """
        keep: set[str] = set()
        drops: dict[str, list[str]] = {}

        def bury(fp: str, entry: _CacheEntry) -> None:
            del self._entries[fp]
            if entry.owner == job_id:
                # The releasing experiment's own prefix cleanup drops these.
                return
            for worker, tables in entry.tables().items():
                drops.setdefault(worker, []).extend(tables)

        with self._lock:
            for fp, entry in list(self._entries.items()):
                entry.refs.discard(job_id)
                if entry.state != _CacheEntry.READY:
                    if entry.owner == job_id:
                        # The owner died without publish/fail (should not
                        # happen, but a stuck COMPUTING entry would wedge
                        # every future waiter).
                        del self._entries[fp]
                        entry.event.set()
                    continue
                if not entry.refs and entry.epoch != epoch:
                    bury(fp, entry)
                    continue
                if entry.owner == job_id:
                    for tables in entry.tables().values():
                        keep.update(tables)
            # LRU capacity: evict the oldest unreferenced entries.
            idle = sorted(
                (
                    (fp, entry)
                    for fp, entry in self._entries.items()
                    if entry.state == _CacheEntry.READY and not entry.refs
                ),
                key=lambda item: item[1].seq,
            )
            overflow = len(self._entries) - self.capacity
            for fp, entry in idle[: max(0, overflow)]:
                if entry.owner == job_id:
                    keep.difference_update(
                        t for tables in entry.tables().values() for t in tables
                    )
                bury(fp, entry)
        return sorted(keep), drops

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                entry.event.set()
            self._entries.clear()


# ------------------------------------------------------------ node execution


class _NodeState:
    __slots__ = ("node", "done", "result", "error", "failed_dep", "parent_span",
                 "fingerprint", "thread", "ghost")

    def __init__(self, node: PlanNode, parent_span) -> None:
        self.node = node
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.failed_dep: int | None = None
        self.parent_span = parent_span
        self.fingerprint: str | None = None
        self.thread: threading.Thread | None = None
        #: Checkpoint replay: a ghost node is recorded in the plan but not
        #: executed — its value either arrives from the resume log
        #: (:meth:`PlanExecutor.set_replayed`) or it materializes lazily
        #: when a live node references it.
        self.ghost = False


class PlanExecutor:
    """Schedules flow-plan nodes for one experiment's context."""

    def __init__(
        self,
        context: "ExecutionContext",
        mode: str = "eager",
        cache: StepCache | None = None,
    ) -> None:
        if mode not in ("eager", "pipeline"):
            raise AlgorithmError(f"unknown flow mode {mode!r}")
        sim = sim_hooks.current()
        if sim is not None:
            # Simulated runs stay cooperative and byte-deterministic: no
            # free-running node threads, no cross-experiment sharing.
            mode = "eager"
            cache = None
        self.ctx = context
        self.mode = mode
        self.cache = cache
        self._states: dict[int, _NodeState] = {}
        self._order: list[int] = []
        self._lock = threading.Lock()
        #: Cache hits scored by this experiment (surfaces on `repro jobs`).
        self.dedup_hits = 0
        self._flushed_error: BaseException | None = None

    # ------------------------------------------------------------- submission

    def submit(self, node: PlanNode) -> None:
        """Accept a freshly recorded node; dispatch it when ready."""
        state = _NodeState(node, tracer.current())
        with self._lock:
            self._states[node.node_id] = state
            self._order.append(node.node_id)
        sim = sim_hooks.current()
        if sim is not None:
            sim.plan_node(f"{node.kind}:n{node.node_id}")
        if self.mode == "eager":
            self._run_node(state)
            if state.error is not None:
                raise state.error
            return
        caller_context = contextvars.copy_context()
        thread = threading.Thread(
            target=caller_context.run,
            args=(self._pipeline_node, state),
            name=f"plan-node-{self.ctx.job_id}-n{node.node_id}",
            daemon=True,
        )
        state.thread = thread
        thread.start()

    def submit_ghost(self, node: PlanNode) -> None:
        """Record a node during checkpoint replay without executing it.

        Replay answers the flow's reads from the recorded frontier, so the
        steps behind those reads must not re-run (their side effects —
        worker tables, SMPC traffic, privacy spend — already happened in a
        previous life).  A ghost that a post-replay *live* node references
        materializes on demand via :meth:`_ensure`.
        """
        state = _NodeState(node, tracer.current())
        state.ghost = True
        with self._lock:
            self._states[node.node_id] = state
            self._order.append(node.node_id)

    def set_replayed(self, node_id: int, value: Any) -> None:
        """Resolve a ghost read node to its checkpointed value."""
        state = self._states[node_id]
        state.result = value
        state.done.set()

    def _ensure(self, node_id: int) -> _NodeState:
        """The node's state, materialized if it is still an unrun ghost."""
        state = self._states[node_id]
        if state.ghost and not state.done.is_set():
            # Materializing binds the node's arguments, which recurses into
            # _ensure for its referenced ghosts — only the true data
            # dependencies re-execute, never the whole recorded prefix.
            state.ghost = False
            self._run_node(state)
            if state.error is not None:
                raise state.error
        return state

    def _pipeline_node(self, state: _NodeState) -> None:
        """Thread body: wait for dependency edges, then run the node."""
        job = transport_mod.current_job()
        token = profiler_mod.bind_current_thread(job) if job else None
        try:
            for dep in state.node.deps:
                dep_state = self._states[dep]
                dep_state.done.wait()
                if dep_state.error is not None or dep_state.failed_dep is not None:
                    state.failed_dep = (
                        dep if dep_state.error is not None else dep_state.failed_dep
                    )
                    return
            self._run_node(state)
        finally:
            if token is not None:
                profiler_mod.unbind_thread(token)
            state.done.set()

    # ---------------------------------------------------------------- forcing

    def result(self, node_id: int, index: int | None = None) -> Any:
        """Materialize one node's result (the data-dependency barrier)."""
        state = self._ensure(node_id)
        if self.mode == "pipeline":
            state.done.wait()
        if state.error is not None:
            raise state.error
        if state.failed_dep is not None:
            raise self._states[state.failed_dep].error  # type: ignore[misc]
        if index is None:
            return state.result
        return state.result[index]

    def raise_pending(self) -> None:
        """Surface the earliest already-failed node without blocking."""
        for node_id in self._order:
            state = self._states[node_id]
            if state.done.is_set() and state.error is not None:
                raise state.error

    def flush(self) -> None:
        """Wait for every submitted node; raise the first failure in order."""
        for node_id in list(self._order):
            state = self._states[node_id]
            if state.ghost and not state.done.is_set():
                # An unreferenced ghost never ran — there is nothing to
                # wait for and no failure to surface.
                continue
            if self.mode == "pipeline":
                state.done.wait()
            if state.error is not None:
                self._flushed_error = state.error
                raise state.error

    def close(self) -> None:
        """Quiesce: wait out in-flight nodes, swallow their errors.

        Used on cleanup paths (including cancellation) where the
        interesting exception is already propagating.
        """
        if self.mode != "pipeline":
            return
        for node_id in list(self._order):
            self._states[node_id].done.wait()

    # -------------------------------------------------------------- execution

    def _run_node(self, state: _NodeState) -> None:
        node = state.node
        try:
            state.fingerprint = self._fingerprint(node)
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
        except BaseException as error:  # noqa: BLE001 - re-raised at force
            state.error = error
        finally:
            state.done.set()

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
            cache = self.cache
            fingerprint = state.fingerprint
            claim = None
            if cache is not None and fingerprint is not None:
                claim = cache.acquire(
                    fingerprint, ctx.job_id, cancel_event=ctx.cancel_event
                )
                if claim.hit:
                    span.set_attribute("plan_cache", "hit")
                    self.dedup_hits += 1
                    ctx.master.audit.record(
                        "plan_cache_hit",
                        job_id=node.step_id,
                        fingerprint=fingerprint[:12],
                        owner=claim.owner,
                    )
                    return claim.outputs
                span.set_attribute("plan_cache", "miss")
            workers_before = list(ctx.workers)
            try:
                outputs = self._compute_local_step(node, span)
            except BaseException:
                if claim is not None:
                    cache.fail(fingerprint, ctx.job_id)
                raise
            if claim is not None:
                if list(ctx.workers) == workers_before:
                    cache.publish(
                        fingerprint, ctx.job_id, outputs,
                        epoch=ctx.master.catalog_epoch,
                    )
                else:
                    # A worker was evicted mid-step: the result covers a
                    # degraded quorum and must not be shared.
                    cache.fail(fingerprint, ctx.job_id)
            return outputs

    def _compute_local_step(self, node: LocalStepNode, span) -> list[dict[str, Any]]:
        ctx = self.ctx
        workers = list(ctx.workers)
        per_worker: dict[str, dict[str, Any]] = {}
        for worker in workers:
            arguments: dict[str, Any] = {}
            for pname, arg in node.args:
                arguments[pname] = self._bind_local(arg, pname, worker)
            per_worker[worker] = arguments
        if self.mode == "eager":
            # Inline dispatch: identical call sites to the historical
            # imperative path (and no free threads under a simulation).
            results = ctx.master.run_local_step(node.step_id, node.udf, per_worker)
        else:
            future = ctx.master.run_local_step_async(
                node.step_id, node.udf, per_worker, parent_span=tracer.current()
            )
            results = future.result()
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
        if arg.kind == "local_tables":
            if worker not in arg.value:
                raise AlgorithmError(
                    f"parameter {pname!r}: no local table for worker {worker!r}"
                )
            return {"kind": "table", "name": arg.value[worker]}
        # A reference: either an upstream local step's output slot or a
        # broadcast node's placement map.
        assert arg.ref is not None
        upstream = self._ensure(arg.ref.node_id)
        value = upstream.result
        if isinstance(upstream.node, BroadcastNode):
            placements: Mapping[str, str] = value
            if worker not in placements:
                raise AlgorithmError(
                    f"parameter {pname!r}: no local table for worker {worker!r}"
                )
            return {"kind": "table", "name": placements[worker]}
        output = value[arg.ref.index]
        if worker not in output["tables"]:
            raise AlgorithmError(
                f"parameter {pname!r}: no local table for worker {worker!r}"
            )
        return {"kind": "table", "name": output["tables"][worker]}

    # -------------------------------------------------------------- broadcast

    def _exec_broadcast(self, node: BroadcastNode, state: _NodeState) -> dict[str, str]:
        ctx = self.ctx
        table = self._resolve_global_table(node.source)
        with tracer.span(
            "flow.broadcast", parent=state.parent_span, table=table
        ):
            with ctx._broadcast_lock:
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
        if source.kind == "local_tables":
            return dict(source.value)
        assert source.ref is not None
        output = self._ensure(source.ref.node_id).result[source.ref.index]
        return dict(output["tables"])

    def _resolve_global_table(self, source: PlanArg) -> str:
        if source.kind == "global_table":
            return str(source.value)
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
        if arg.kind == "global_table":
            return str(arg.value)
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

    # ---------------------------------------------------------- fingerprints

    def _fingerprint(self, node: PlanNode) -> str | None:
        """Deterministic identity of a node's *result*, or None (uncacheable).

        References contribute the upstream node's fingerprint, so equality
        is transitive over the dataflow and independent of physical table
        names.  Noise-bearing aggregates are uncacheable (a DP draw must
        never be shared), which poisons everything downstream of them.
        """
        ctx = self.ctx
        if isinstance(node, (LocalStepNode, GlobalStepNode)):
            spec = udf_registry.get(node.udf)
            args: dict[str, Any] = {}
            for pname, arg in node.args:
                key = self._arg_key(arg)
                if key is None:
                    return None
                args[pname] = key
            scope = "local" if isinstance(node, LocalStepNode) else "global"
            payload = {
                "scope": scope,
                "udf": node.udf,
                "src": source_hash(spec.source),
                "args": args,
                "epoch": ctx.master.catalog_epoch,
            }
            if isinstance(node, LocalStepNode):
                payload["workers"] = list(ctx.workers)
                payload["datasets"] = {
                    worker: list(ctx.worker_datasets[worker])
                    for worker in ctx.workers
                }
                payload["data_model"] = ctx.data_model
                payload["filter"] = ctx.filter_sql
            return canonical_fingerprint(payload)
        if isinstance(node, BroadcastNode):
            return self._source_key(node.source)
        if isinstance(node, SecureAggregateNode):
            if ctx.noise is not None:
                return None
            source = self._source_key(node.source)
            if source is None:
                return None
            return canonical_fingerprint(
                {"agg": "secure", "path": node.path, "source": source}
            )
        if isinstance(node, PlainAggregateNode):
            source = self._source_key(node.source)
            if source is None:
                return None
            return canonical_fingerprint(
                {"agg": "plain", "store": node.store, "source": source}
            )
        if isinstance(node, BarrierNode):
            return self._source_key(node.source)
        return None

    def _source_key(self, source: PlanArg) -> str | None:
        if source.ref is None:
            # Constant handles come from outside the plan; their provenance
            # is unknown, so nothing downstream of them is cacheable.
            return None
        upstream = self._states[source.ref.node_id]
        if upstream.fingerprint is None:
            return None
        return f"{upstream.fingerprint}:{source.ref.index}"

    def _arg_key(self, arg: PlanArg) -> Any:
        if arg.kind == "literal":
            return literal_key(arg.value)
        if arg.kind == "view":
            return {
                "view": {
                    "variables": list(arg.view.variables),
                    "dropna": bool(arg.view.dropna),
                }
            }
        if arg.kind in ("local_tables", "global_table"):
            return None
        return self._source_key(arg)
