"""The execution context behind ``local_run`` / ``global_run``.

One :class:`ExecutionContext` exists per experiment.  It knows which workers
participate (dataset-aware shipping), how to build each worker's data view,
which aggregation path moves transfers (plain remote/merge or SMPC), and it
tracks every created table for cleanup.

Since the flow-plan refactor the context is a thin *recording facade*: each
``local_run`` / ``global_run`` / ``get_transfer_data`` call validates its
arguments, appends typed nodes to a :class:`~repro.core.plan.FlowPlan`, and
hands them to the :class:`~repro.core.plan_executor.PlanExecutor`, which
runs each node inline at record time.  The returned handles are references
to plan nodes — algorithms keep passing them between steps unchanged — and
are lazy only under resume replay, where a recorded node runs the first
time a live step needs it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import (
    AlgorithmError,
    ExperimentCancelledError,
    QuorumError,
    SpecificationError,
)
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
)
from repro.core.plan_executor import PlanExecutor
from repro.core.state import GlobalHandle, LocalHandle
from repro.federation.master import Master
from repro.federation.messages import new_job_id
from repro.smpc.cluster import NoiseSpec
from repro.udfgen.decorators import get_spec
from repro.udfgen.iotypes import LiteralType, RelationType, TransferType


@dataclass(frozen=True)
class DataView:
    """A declarative slice of the primary data (variables + NA policy).

    The context compiles a view into a per-worker SQL query over that
    worker's data-model table, restricted to the datasets assigned to the
    worker by the shipping plan plus any experiment filter.
    """

    variables: tuple[str, ...]
    dropna: bool = True

    @classmethod
    def of(cls, variables: Sequence[str], dropna: bool = True) -> "DataView":
        return cls(tuple(variables), dropna)


class ExecutionContext:
    """Runtime services available to an algorithm flow."""

    def __init__(
        self,
        master: Master,
        data_model: str,
        worker_datasets: Mapping[str, Sequence[str]],
        aggregation: str = "smpc",
        noise: NoiseSpec | None = None,
        filter_sql: str | None = None,
        job_prefix: str | None = None,
        cancel_event: threading.Event | None = None,
        durability=None,
        resume_reads: Sequence[Mapping[str, Any]] | None = None,
    ) -> None:
        if aggregation not in ("smpc", "plain"):
            raise AlgorithmError(f"unknown aggregation path {aggregation!r}")
        if noise is not None and aggregation != "smpc":
            # Noise is added inside the SMPC protocol; the plain path has
            # nowhere to add it and would release exact aggregates.
            raise SpecificationError(
                f"noise {noise.mechanism}({noise.scale}) needs aggregation='smpc'"
            )
        self.master = master
        self.data_model = data_model
        self.worker_datasets = {w: list(d) for w, d in worker_datasets.items()}
        self.workers = sorted(self.worker_datasets)
        if not self.workers:
            raise AlgorithmError("no workers selected for execution")
        self.aggregation = aggregation
        self.noise = noise
        self.filter_sql = filter_sql
        self.job_id = job_prefix or new_job_id("exp")
        #: Cooperative cancellation: the job queue sets this flag; the flow
        #: observes it between steps (not mid-send), so a cancelled
        #: experiment stops at the next step boundary.
        self.cancel_event = cancel_event
        self._step_counter = itertools.count(1)
        self._broadcasts: dict[tuple[str, str], str] = {}  # (table, worker) -> remote name
        #: Workers evicted from this flow mid-experiment (degrading failure
        #: policy), mapped to the step at which they were lost.
        self.evicted: dict[str, str] = {}
        #: The recorded flow (inspectable via ``repro plan``).
        self.plan = FlowPlan(self.job_id)
        self.executor = PlanExecutor(self)
        # One broadcast node per distinct global-transfer source: repeat
        # uses share the placement work instead of re-shipping.
        self._bcast_nodes: dict[ValueRef, int] = {}
        #: Durability sink: every forced read is recorded (a fsync'd journal
        #: ``step`` record carrying the value) so a crashed experiment can
        #: resume from its last read instead of step 0.
        self._durability = durability
        #: Read frontier folded from the journal's ``step`` records.  While
        #: it is being replayed, plan nodes are submitted as *ghosts*
        #: (recorded but never executed) and reads are answered from the
        #: log; the first read past the log — or a key mismatch — switches
        #: to live execution.
        self._resume = [dict(entry) for entry in resume_reads] if resume_reads else None
        self._resume_pos = 0
        self.replayed_reads = 0
        self.resume_diverged = False

    # ----------------------------------------------------------- cancellation

    def check_cancelled(self) -> None:
        """Raise if this experiment's job was cancelled (between-step check)."""
        sim = self.master.transport.sim
        if sim is not None:
            # A step boundary: step-indexed faults (cancellations) fire here,
            # before the flag check, so an injected cancel takes effect at
            # this very boundary rather than the next one.
            sim.flow_step(f"step:{self.job_id}")
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise ExperimentCancelledError(
                f"experiment {self.job_id} was cancelled mid-flow"
            )

    # ------------------------------------------------------------- data views

    def view_query(self, view: DataView, worker: str) -> str:
        """Compile a DataView into SQL for one worker."""
        datasets = self.worker_datasets[worker]
        if not datasets:
            raise AlgorithmError(f"worker {worker!r} has no assigned datasets")
        columns = ", ".join(view.variables)
        table = f"data_{self.data_model}"
        quoted = ", ".join("'" + code.replace("'", "''") + "'" for code in datasets)
        conditions = [f"dataset IN ({quoted})"]
        if view.dropna:
            conditions.extend(f"{variable} IS NOT NULL" for variable in view.variables)
        if self.filter_sql:
            conditions.append(f"({self.filter_sql})")
        where = " AND ".join(conditions)
        return f"SELECT {columns} FROM {table} WHERE {where}"

    # ------------------------------------------------------------ plan record

    def _record(self, node) -> None:
        """Append one node and hand it to the executor."""
        self.plan.add(node)
        if self._replaying():
            self.executor.submit_ghost(node)
        else:
            self.executor.submit(node)

    def _replaying(self) -> bool:
        return self._resume is not None and self._resume_pos < len(self._resume)

    @staticmethod
    def _deps(deps: list[int]) -> tuple[int, ...]:
        """A node's data edges, first occurrence order, without repeats."""
        return tuple(dict.fromkeys(deps))

    def _broadcast_node(self, source: ValueRef, step_id: str) -> int:
        """Get-or-create the broadcast node for one global-transfer source."""
        existing = self._bcast_nodes.get(source)
        if existing is not None:
            return existing
        node = BroadcastNode(
            node_id=self.plan.next_id(),
            deps=self._deps([source.node_id]),
            source=PlanArg("ref", ref=source),
            step_id=step_id,
        )
        self._bcast_nodes[source] = node.node_id
        self._record(node)
        return node.node_id

    # -------------------------------------------------------------- local run

    def local_run(
        self,
        func: Callable[..., Any],
        keyword_args: Mapping[str, Any],
        share_to_global: Sequence[bool],
    ) -> LocalHandle | tuple[LocalHandle, ...]:
        """Record one local computation step over every participating worker."""
        self.check_cancelled()
        spec = get_spec(func)
        if len(share_to_global) != len(spec.outputs):
            raise AlgorithmError(
                f"share_to_global has {len(share_to_global)} flags for "
                f"{len(spec.outputs)} outputs of {spec.name!r}"
            )
        out_kinds = tuple(iotype.kind for iotype in spec.outputs)
        step_id = f"{self.job_id}_s{next(self._step_counter)}"
        args: list[tuple[str, PlanArg]] = []
        deps: list[int] = []
        for pname, value in keyword_args.items():
            arg = self._record_local_argument(spec, pname, value, step_id)
            if arg.ref is not None:
                deps.append(arg.ref.node_id)
            args.append((pname, arg))
        node = LocalStepNode(
            node_id=self.plan.next_id(),
            deps=self._deps(deps),
            step_id=step_id,
            udf=spec.name,
            args=tuple(args),
            share=tuple(bool(flag) for flag in share_to_global),
            out_kinds=out_kinds,
        )
        self._record(node)
        handles = [
            LocalHandle(
                self.executor,
                ValueRef(node.node_id, index),
                kind,
                bool(share_to_global[index]),
            )
            for index, kind in enumerate(out_kinds)
        ]
        return handles[0] if len(handles) == 1 else tuple(handles)

    def _record_local_argument(
        self, spec, pname: str, value: Any, step_id: str
    ) -> PlanArg:
        iotype = spec.input_type(pname)
        if isinstance(value, DataView):
            if not isinstance(iotype, RelationType):
                raise AlgorithmError(f"parameter {pname!r}: data views bind to relations only")
            return PlanArg("view", view=value)
        if isinstance(value, LocalHandle):
            return PlanArg("ref", ref=value.ref)
        if isinstance(value, GlobalHandle):
            if value.kind != "transfer":
                raise AlgorithmError(
                    f"parameter {pname!r}: only global transfers can be broadcast, "
                    f"got {value.kind!r}"
                )
            bcast = self._broadcast_node(value.ref, step_id)
            return PlanArg("ref", ref=ValueRef(bcast, 0))
        if isinstance(iotype, LiteralType):
            return PlanArg("literal", value=value)
        raise AlgorithmError(
            f"parameter {pname!r}: cannot bind a {type(value).__name__} to "
            f"{type(iotype).__name__}"
        )

    def _evict(self, lost: Sequence[str], step_id: str) -> None:
        """Drop workers from the remainder of this flow (degrade path)."""
        lost_set = set(lost)
        survivors = [worker for worker in self.workers if worker not in lost_set]
        if not survivors:
            raise QuorumError(
                f"step {step_id}: every participating worker was lost"
            )
        for worker in lost_set:
            self.worker_datasets.pop(worker, None)
            self.evicted[worker] = step_id
        self.workers = survivors
        self.master.audit.record(
            "worker_evicted",
            job_id=step_id,
            workers=sorted(lost_set),
            survivors=len(survivors),
        )

    # ------------------------------------------------------------- global run

    def global_run(
        self,
        func: Callable[..., Any],
        keyword_args: Mapping[str, Any],
        share_to_locals: Sequence[bool],
    ) -> GlobalHandle | tuple[GlobalHandle, ...]:
        """Record one global step on the master, aggregating local transfers."""
        self.check_cancelled()
        spec = get_spec(func)
        if len(share_to_locals) != len(spec.outputs):
            raise AlgorithmError(
                f"share_to_locals has {len(share_to_locals)} flags for "
                f"{len(spec.outputs)} outputs of {spec.name!r}"
            )
        step_id = f"{self.job_id}_s{next(self._step_counter)}"
        args: list[tuple[str, PlanArg]] = []
        deps: list[int] = []
        # Aggregates of one global step draw per-step table counters on the
        # master; chaining them in parameter order keeps the drawn names
        # deterministic under concurrent dispatch.
        last_aggregate: int | None = None
        for pname, value in keyword_args.items():
            arg, aggregate = self._record_global_argument(
                spec, pname, value, step_id, last_aggregate
            )
            if aggregate is not None:
                last_aggregate = aggregate
            if arg.ref is not None:
                deps.append(arg.ref.node_id)
            args.append((pname, arg))
        node = GlobalStepNode(
            node_id=self.plan.next_id(),
            deps=self._deps(deps),
            step_id=step_id,
            udf=spec.name,
            args=tuple(args),
            share=tuple(bool(flag) for flag in share_to_locals),
            out_kinds=tuple(iotype.kind for iotype in spec.outputs),
        )
        self._record(node)
        handles = [
            GlobalHandle(
                self.executor, ValueRef(node.node_id, index), iotype.kind, bool(flag)
            )
            for index, (iotype, flag) in enumerate(zip(spec.outputs, share_to_locals))
        ]
        return handles[0] if len(handles) == 1 else tuple(handles)

    def _record_global_argument(
        self, spec, pname: str, value: Any, step_id: str, last_aggregate: int | None
    ) -> tuple[PlanArg, int | None]:
        iotype = spec.input_type(pname)
        if isinstance(value, LocalHandle):
            if not value.shared_to_global:
                raise AlgorithmError(
                    f"parameter {pname!r}: local output was not shared to global"
                )
            node_id = self._record_aggregate(
                value, iotype, step_id, pname, last_aggregate
            )
            return PlanArg("ref", ref=ValueRef(node_id, 0)), node_id
        if isinstance(value, GlobalHandle):
            return PlanArg("ref", ref=value.ref), None
        if isinstance(iotype, LiteralType):
            return PlanArg("literal", value=value), None
        raise AlgorithmError(
            f"parameter {pname!r}: cannot bind a {type(value).__name__} to "
            f"{type(iotype).__name__}"
        )

    def _record_aggregate(
        self,
        handle: LocalHandle,
        iotype,
        step_id: str,
        pname: str,
        last_aggregate: int | None,
    ) -> int:
        if handle.kind != "secure_transfer" or not isinstance(iotype, TransferType):
            raise AlgorithmError(
                f"parameter {pname!r}: a global step aggregates a secure_transfer() "
                "output into a transfer() input"
            )
        deps = [handle.ref.node_id]
        if last_aggregate is not None:
            deps.append(last_aggregate)
        node = SecureAggregateNode(
            node_id=self.plan.next_id(),
            deps=self._deps(deps),
            gather_id=f"{step_id}_{pname}",
            store_id=step_id,
            source=PlanArg("ref", ref=handle.ref),
            path=self.aggregation,
            noise=self.noise,
        )
        self._record(node)
        return node.node_id

    # ------------------------------------------------------------- transfers

    def get_transfer_data(
        self, handle: GlobalHandle | LocalHandle, noise: NoiseSpec | None = None
    ) -> Any:
        """Read transfer contents on the master (the Figure 2 final read).

        ``noise`` is added inside the protocol to this read's secure
        aggregate; without it the context's noise applies.
        """
        self.check_cancelled()
        if isinstance(handle, GlobalHandle):
            node = BarrierNode(
                node_id=self.plan.next_id(),
                deps=self._deps([handle.ref.node_id]),
                source=PlanArg("ref", ref=handle.ref),
            )
            self._record(node)
            return self._force_read(node)
        if isinstance(handle, LocalHandle):
            source, deps = PlanArg("ref", ref=handle.ref), [handle.ref.node_id]
            if handle.kind == "secure_transfer":
                step_id = f"{self.job_id}_read{next(self._step_counter)}"
                node = SecureAggregateNode(
                    node_id=self.plan.next_id(),
                    deps=self._deps(deps),
                    gather_id=step_id,
                    store_id=None,
                    source=source,
                    path=self.aggregation,
                    noise=noise or self.noise,
                )
            else:
                step_id = f"{self.job_id}_read{next(self._step_counter)}"
                node = PlainAggregateNode(
                    node_id=self.plan.next_id(),
                    deps=self._deps(deps),
                    gather_id=step_id,
                    source=source,
                )
            self._record(node)
            return self._force_read(node)
        raise AlgorithmError(f"not a handle: {type(handle).__name__}")

    def _force_read(self, node) -> Any:
        """Materialize one read node — from the resume log while replaying,
        live otherwise — and record the value in the journal.

        The read key ties the recorded value to the exact plan node that
        produced it (node ids are deterministic functions of the recorded
        flow), so replaying over a *different* plan is detected as a key
        mismatch: replay is abandoned and the flow runs live from this
        point, which is always correct, just slower.
        """
        key = f"{type(node).__name__}:n{node.node_id}"
        if self._replaying():
            entry = self._resume[self._resume_pos]
            if entry.get("key") == key:
                self._resume_pos += 1
                self.replayed_reads += 1
                value = entry.get("value")
                self.executor.set_replayed(node.node_id, value)
                if self._durability is not None:
                    # Re-record so this life's step records cover the
                    # whole frontier — a second crash resumes from here,
                    # not from the first crash's frontier.
                    self._durability.record_read(self.job_id, key, value)
                return value
            self._resume_pos = len(self._resume)
            self.resume_diverged = True
        value = self.executor.result(node.node_id)
        if self._durability is not None:
            self._durability.record_read(self.job_id, key, value)
        return value

    # --------------------------------------------------------------- lifecycle

    def cleanup(self) -> None:
        # Evicted workers still hold what the experiment made there.
        self.master.cleanup(self.job_id, self.workers + sorted(self.evicted))
