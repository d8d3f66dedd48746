"""The flow-plan IR: federated algorithm flows as explicit DAGs.

The paper's Figure 2 expresses an algorithm as a sequence of
``local_run`` / ``global_run`` calls.  Executing that sequence imperatively
hides the real structure: which steps *actually* depend on which results.
This module lifts the flow into a first-class plan — a DAG of typed nodes
carrying explicit data-dependency edges — that the
:class:`~repro.core.plan_executor.PlanExecutor` schedules:

- :class:`LocalStepNode` — one UDF on every participating worker,
- :class:`PlainAggregateNode` — the paper's non-secure remote/merge path,
- :class:`SecureAggregateNode` — SMPC (or in-the-clear) aggregation of
  secure-transfer outputs,
- :class:`BroadcastNode` — ship a global transfer to the workers,
- :class:`GlobalStepNode` — one UDF on the master,
- :class:`BarrierNode` — materialize a global transfer's contents.

Node inputs are :class:`PlanArg` values: literals, declarative
:class:`~repro.core.context.DataView` slices, or references to other nodes'
outputs (``ref``).
The :class:`ExecutionContext` records nodes as the algorithm runs; the plan
is therefore also an inspectable artifact (``repro plan <algorithm>``)
rendered as a tree, JSON (``tests/core/test_golden_plans.py`` diffs this),
or DOT.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smpc.cluster import NoiseSpec

__all__ = [
    "ValueRef",
    "PlanArg",
    "PlanNode",
    "LocalStepNode",
    "GlobalStepNode",
    "PlainAggregateNode",
    "SecureAggregateNode",
    "BroadcastNode",
    "BarrierNode",
    "FlowPlan",
]


@dataclass(frozen=True)
class ValueRef:
    """A reference to one output slot of another plan node."""

    node_id: int
    index: int = 0


@dataclass(frozen=True)
class PlanArg:
    """One bound node input.

    ``kind`` selects the payload:

    - ``"literal"`` — a plain Python value (``value``),
    - ``"view"`` — a declarative data slice (``view`` is a DataView),
    - ``"ref"`` — another node's output (``ref``).
    """

    kind: str
    value: Any = None
    view: Any = None  # DataView; typed loosely to avoid an import cycle
    ref: ValueRef | None = None

    def summary(self) -> Any:
        """A JSON-stable description (used by renderers and goldens)."""
        if self.kind == "ref":
            assert self.ref is not None
            return {"ref": f"n{self.ref.node_id}[{self.ref.index}]"}
        if self.kind == "view":
            return {
                "view": {
                    "variables": list(self.view.variables),
                    "dropna": bool(self.view.dropna),
                }
            }
        try:
            blob = json.dumps(self.value, sort_keys=True, default=str)
        except (TypeError, ValueError):
            blob = repr(self.value)
        if len(blob) <= 120:
            return {"literal": self.value}
        return {"literal_sha256": hashlib.sha256(blob.encode()).hexdigest()[:12]}


@dataclass(frozen=True)
class PlanNode:
    """Base node: an id, explicit dependency edges, nothing else."""

    node_id: int
    deps: tuple[int, ...]

    #: Short kind tag used by renderers ("local_step", "broadcast", ...).
    kind: str = field(default="node", init=False, repr=False)


@dataclass(frozen=True)
class LocalStepNode(PlanNode):
    """Run one UDF on every participating worker (paper ``local_run``)."""

    step_id: str = ""
    udf: str = ""
    args: tuple[tuple[str, PlanArg], ...] = ()
    share: tuple[bool, ...] = ()
    out_kinds: tuple[str, ...] = ()

    kind = "local_step"

    def describe(self) -> dict[str, Any]:
        return {
            "udf": self.udf,
            "args": {name: arg.summary() for name, arg in self.args},
            "share": list(self.share),
            "outputs": list(self.out_kinds),
        }


@dataclass(frozen=True)
class GlobalStepNode(PlanNode):
    """Run one UDF on the master (paper ``global_run``)."""

    step_id: str = ""
    udf: str = ""
    args: tuple[tuple[str, PlanArg], ...] = ()
    share: tuple[bool, ...] = ()
    out_kinds: tuple[str, ...] = ()

    kind = "global_step"

    def describe(self) -> dict[str, Any]:
        return {
            "udf": self.udf,
            "args": {name: arg.summary() for name, arg in self.args},
            "share": list(self.share),
            "outputs": list(self.out_kinds),
        }


@dataclass(frozen=True)
class PlainAggregateNode(PlanNode):
    """Gather plain transfers through the remote/merge path (a
    ``get_transfer_data`` read): yields the decoded transfer dicts."""

    gather_id: str = ""
    source: PlanArg = field(default_factory=lambda: PlanArg("literal"))

    kind = "plain_aggregate"

    def describe(self) -> dict[str, Any]:
        return {"source": self.source.summary()}


@dataclass(frozen=True)
class SecureAggregateNode(PlanNode):
    """Aggregate secure-transfer outputs along the configured path.

    ``path`` is the experiment's aggregation mode: ``"smpc"`` imports shares
    into the cluster, ``"plain"`` is the paper's in-the-clear alternative.
    ``store_id`` set means the aggregate is materialized as a master
    transfer table (a ``global_run`` binding); ``None`` means the dict is
    returned directly (a ``get_transfer_data`` read).  ``noise`` is added
    inside the protocol before this aggregate is opened (``None``: exact).
    """

    gather_id: str = ""
    store_id: str | None = None
    source: PlanArg = field(default_factory=lambda: PlanArg("literal"))
    path: str = "smpc"
    noise: NoiseSpec | None = None

    kind = "secure_aggregate"

    def describe(self) -> dict[str, Any]:
        described: dict[str, Any] = {
            "source": self.source.summary(),
            "path": self.path,
            "store": self.store_id is not None,
        }
        if self.noise is not None:
            described["noise"] = {
                "mechanism": self.noise.mechanism, "scale": self.noise.scale,
            }
        return described


@dataclass(frozen=True)
class BroadcastNode(PlanNode):
    """Ship one global transfer to every participating worker.

    ``step_id`` is the local step that first needed the transfer; evictions
    during the broadcast are attributed to it, matching the imperative
    path's pre-broadcast bookkeeping.
    """

    source: PlanArg = field(default_factory=lambda: PlanArg("literal"))
    step_id: str = ""

    kind = "broadcast"

    def describe(self) -> dict[str, Any]:
        return {"source": self.source.summary()}


@dataclass(frozen=True)
class BarrierNode(PlanNode):
    """Materialize a global transfer's contents (the Figure 2 final read)."""

    source: PlanArg = field(default_factory=lambda: PlanArg("literal"))

    kind = "barrier"

    def describe(self) -> dict[str, Any]:
        return {"source": self.source.summary()}


class FlowPlan:
    """The recorded DAG of one experiment's flow."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.nodes: list[PlanNode] = []
        self._by_id: dict[int, PlanNode] = {}
        self._next = 1

    def next_id(self) -> int:
        value = self._next
        self._next += 1
        return value

    def add(self, node: PlanNode) -> PlanNode:
        self.nodes.append(node)
        self._by_id[node.node_id] = node
        return node

    def node(self, node_id: int) -> PlanNode:
        return self._by_id[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every (dependency, dependent) edge in node order."""
        for node in self.nodes:
            for dep in node.deps:
                yield (dep, node.node_id)

    # -------------------------------------------------------------- renderers

    def _scrub(self, text: str) -> str:
        """Replace the run-specific job id so renders are job-independent."""
        return text.replace(self.job_id, "$job")

    def to_json(self) -> dict[str, Any]:
        """A deterministic, job-id-independent JSON description.

        This is the golden-plan surface: two runs of the same algorithm on
        the same data must render byte-identically, so accidental
        flow-shape changes show up as golden-file diffs in CI.
        """
        rendered = []
        for node in self.nodes:
            entry: dict[str, Any] = {
                "id": node.node_id,
                "kind": node.kind,
                "deps": list(node.deps),
            }
            step = getattr(node, "step_id", "") or getattr(node, "gather_id", "")
            if step:
                entry["step"] = self._scrub(step)
            entry.update(node.describe())
            rendered.append(entry)
        return {"nodes": rendered, "edges": [list(edge) for edge in self.edges()]}

    def render_tree(self) -> str:
        """An ASCII dependency tree (roots first, shared nodes cross-linked)."""
        dependents: dict[int, list[int]] = {node.node_id: [] for node in self.nodes}
        for dep, dependent in self.edges():
            dependents[dep].append(dependent)
        roots = [node.node_id for node in self.nodes if not node.deps]
        lines = [f"flow plan: {len(self.nodes)} nodes"]
        printed: set[int] = set()

        def label(node_id: int) -> str:
            node = self._by_id[node_id]
            desc = node.describe()
            extra = f" udf={desc['udf']}" if "udf" in desc else ""
            if isinstance(node, (SecureAggregateNode, PlainAggregateNode)):
                extra = f" mode={'secure' if node.kind == 'secure_aggregate' else 'plain'}"
            return f"n{node_id} [{node.kind}]{extra}"

        def walk(node_id: int, prefix: str, is_last: bool) -> None:
            connector = "└─ " if is_last else "├─ "
            if node_id in printed:
                lines.append(f"{prefix}{connector}(n{node_id})")
                return
            printed.add(node_id)
            lines.append(f"{prefix}{connector}{label(node_id)}")
            children = dependents[node_id]
            child_prefix = prefix + ("   " if is_last else "│  ")
            for position, child in enumerate(children):
                walk(child, child_prefix, position == len(children) - 1)

        for position, root in enumerate(roots):
            walk(root, "", position == len(roots) - 1)
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz DOT (``repro plan --format dot | dot -Tsvg``)."""
        shapes = {
            "local_step": "box",
            "global_step": "box3d",
            "plain_aggregate": "invtrapezium",
            "secure_aggregate": "invtrapezium",
            "broadcast": "trapezium",
            "barrier": "octagon",
        }
        lines = ["digraph flow_plan {", "  rankdir=TB;"]
        for node in self.nodes:
            desc = node.describe()
            text = f"n{node.node_id}\\n{node.kind}"
            if "udf" in desc:
                text += f"\\n{desc['udf']}"
            shape = shapes.get(node.kind, "ellipse")
            lines.append(f'  n{node.node_id} [label="{text}", shape={shape}];')
        for dep, dependent in self.edges():
            lines.append(f"  n{dep} -> n{dependent};")
        lines.append("}")
        return "\n".join(lines)
