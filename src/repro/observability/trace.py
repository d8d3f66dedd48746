"""Nested-span tracing for federated flows.

A :class:`Tracer` records a tree of :class:`Span`\\ s per experiment: one
root span per flow, one span per local/global step, one per fan-out with a
child span per worker send (retries included), plus UDF generation/execution
and SMPC protocol rounds.  Spans carry both wall-clock timestamps
(``time.perf_counter``) and *simulated*-clock timestamps (the transport's
modeled network seconds), so a trace shows where the modeled time went even
when the suite runs in milliseconds.

Design constraints:

- **Zero dependencies, near-zero disabled cost.**  The module-level
  :data:`tracer` is disabled unless ``REPRO_TRACE`` is set; a disabled
  ``tracer.span(...)`` returns a shared no-op context manager without
  allocating anything, so instrumented hot paths stay within the <5%%
  overhead budget asserted by the E5 benchmark.
- **Determinism.**  Span structure is a pure function of the flow: the
  transport pre-draws failure schedules, so the same seed produces the same
  span tree (modulo sibling order and timestamps) at any fan-out
  parallelism — asserted by ``tests/observability/test_trace_determinism``.
- **Cross-thread parentage.**  The span stack is thread-local; a fan-out
  captures the caller's current span and passes it explicitly as ``parent``
  to the spans its pool threads open, keeping per-worker sends nested under
  the fan-out span.

Exports: :meth:`Tracer.export_json` (a flat list of span dicts) and
:meth:`Tracer.export_chrome` (the Chrome ``chrome://tracing`` /
Perfetto trace-event format).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Mapping

TRACE_ENV = "REPRO_TRACE"


def _env_enabled() -> bool:
    return os.environ.get(TRACE_ENV, "").strip() not in ("", "0", "false", "no")


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "start_wall",
        "end_wall",
        "start_sim",
        "end_sim",
        "status",
        "error",
        "thread_id",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: int,
        parent_id: int | None,
        attributes: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_wall = time.perf_counter()
        self.end_wall: float | None = None
        self.start_sim = tracer._sim_now()
        self.end_sim: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.thread_id = threading.get_ident()

    # Context-manager protocol: the tracer pushes on __enter__ via span().
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        self.end_wall = time.perf_counter()
        self.end_sim = self._tracer._sim_now()
        self._tracer._pop(self)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_error(self, message: str) -> None:
        """Mark the span failed without raising through it."""
        self.status = "error"
        self.error = message

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def set_error(self, message: str) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans to an in-memory buffer; one instance per process."""

    def __init__(self, enabled: bool | None = None) -> None:
        self._enabled = _env_enabled() if enabled is None else enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1
        #: Simulated-clock source (seconds); the transport wires this to its
        #: modeled-network clock when a federation is assembled.
        self.sim_clock: Callable[[], float] | None = None

    # ------------------------------------------------------------- switches

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every recorded span (the buffer, not the enabled state)."""
        with self._lock:
            self._spans = []
            self._next_span_id = 1
            self._next_trace_id = 1
        self._local = threading.local()

    # --------------------------------------------------------------- spans

    def span(
        self,
        name: str,
        parent: "Span | _NullSpan | None" = None,
        **attributes: Any,
    ) -> "Span | _NullSpan":
        """Open a span as a context manager.

        Without ``parent`` the span nests under the calling thread's current
        span (a new root — and a new ``trace_id`` — if there is none).  Pass
        the caller's span explicitly when entering from another thread, e.g.
        a fan-out pool worker.
        """
        if not self._enabled:
            return NULL_SPAN
        if isinstance(parent, _NullSpan):
            parent = None
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            if parent is None:
                trace_id = f"trace-{self._next_trace_id}"
                self._next_trace_id += 1
                parent_id = None
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
        span = Span(self, name, trace_id, span_id, parent_id, dict(attributes))
        with self._lock:
            self._spans.append(span)
        self._stack().append(span)
        return span

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit; keep the structure sane
            stack.remove(span)

    def _sim_now(self) -> float:
        clock = self.sim_clock
        if clock is None:
            return 0.0
        try:
            return float(clock())
        except Exception:  # pragma: no cover - a clock must never break a span
            return 0.0

    # ------------------------------------------------------------- exports

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def export_json(self) -> list[dict[str, Any]]:
        """Flat list of span dicts (parent linkage via ``parent_id``)."""
        return [span.to_dict() for span in self.spans()]

    def export_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event format (``chrome://tracing`` / Perfetto).

        Each finished span becomes one complete ("ph": "X") event; wall
        timestamps are microseconds relative to the earliest span.  Span
        attributes, the simulated-clock window, and error status travel in
        ``args``.
        """
        spans = [s for s in self.spans() if s.end_wall is not None]
        origin = min((s.start_wall for s in spans), default=0.0)
        events: list[dict[str, Any]] = []
        tids: dict[int, int] = {}
        for span in spans:
            tid = tids.setdefault(span.thread_id, len(tids) + 1)
            args: dict[str, Any] = dict(span.attributes)
            args["trace_id"] = span.trace_id
            args["sim_seconds"] = round((span.end_sim or 0.0) - span.start_sim, 9)
            if span.status != "ok":
                args["error"] = span.error
            events.append(
                {
                    "name": span.name,
                    "cat": "repro" if span.status == "ok" else "repro,error",
                    "ph": "X",
                    "ts": round((span.start_wall - origin) * 1e6, 3),
                    "dur": round((span.end_wall - span.start_wall) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def critical_path(self, clock: str = "wall", root_name: str | None = None):
        """Critical-path analysis of the recorded buffer.

        Delegates to :func:`repro.observability.critical_path.analyze`
        (imported lazily so the tracer itself stays dependency-free on the
        hot path); analyzes the longest matching root span.
        """
        from repro.observability.critical_path import analyze

        return analyze(self.span_tree(), clock=clock, root_name=root_name)

    def span_tree(self) -> list[dict[str, Any]]:
        """Nested view of the buffer: roots with recursive ``children``."""
        spans = self.spans()
        nodes = {
            span.span_id: {**span.to_dict(), "children": []} for span in spans
        }
        roots: list[dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots


def filter_tree(
    roots: list[dict[str, Any]],
    min_ms: float = 0.0,
    top: int | None = None,
    clock: str = "wall",
) -> list[dict[str, Any]]:
    """Prune a :meth:`Tracer.span_tree` view for human consumption.

    ``min_ms`` drops spans shorter than the threshold — unless a descendant
    survives, in which case the ancestor is kept as scaffolding so the tree
    stays connected.  ``top`` caps each span's children to the N slowest;
    pruned nodes are summarized in a ``children_dropped`` count (with their
    total duration in ``dropped_ms``) rather than vanishing silently.  The
    input is not mutated.
    """
    if min_ms < 0:
        raise ValueError("min_ms must be >= 0")
    if top is not None and top < 1:
        raise ValueError("top must be >= 1")

    def duration_ms(node: Mapping[str, Any]) -> float:
        start, end = node.get(f"start_{clock}"), node.get(f"end_{clock}")
        if start is None or end is None:
            return 0.0
        return max(0.0, (end - start) * 1e3)

    def prune(node: dict[str, Any]) -> dict[str, Any] | None:
        children = [
            kept
            for child in node.get("children", ())
            if (kept := prune(child)) is not None
        ]
        own_ms = duration_ms(node)
        if own_ms < min_ms and not children:
            return None
        out = dict(node)
        if top is not None and len(children) > top:
            ranked = sorted(children, key=duration_ms, reverse=True)
            kept_set = {id(c) for c in ranked[:top]}
            dropped = [c for c in children if id(c) not in kept_set]
            children = [c for c in children if id(c) in kept_set]
            out["children_dropped"] = len(dropped)
            out["dropped_ms"] = round(sum(duration_ms(c) for c in dropped), 3)
        out["children"] = children
        out["duration_ms"] = round(own_ms, 3)
        return out

    return [kept for root in roots if (kept := prune(root)) is not None]


def normalized_tree(roots: list[Mapping[str, Any]] | None = None) -> Any:
    """A structural fingerprint of a span tree, modulo sibling order.

    Keeps span names, error status, and the determinism-relevant attributes
    (receiver/kind/retries/eviction); drops ids, timestamps and thread
    placement, plus attributes that legitimately vary between equivalent
    runs: randomly drawn job/step/experiment ids and the tables named after
    them, the configured fan-out ``width``, and plan-cache hit/miss flags
    (which concurrent worker warms the shared cache first is a scheduling
    accident).  Two runs with the same seed must produce equal fingerprints
    at any fan-out parallelism.
    """
    if roots is None:
        roots = tracer.span_tree()

    _unstable = (
        "elapsed_wall",
        "bytes",
        "plan_cache",
        "definition_skipped",
        "experiment",
        "step",
        "job",
        "table",
        "function",
        "width",
    )

    def norm(node: Mapping[str, Any]) -> tuple:
        attrs = node.get("attributes", {})
        kept = tuple(
            sorted(
                (k, json.dumps(v, sort_keys=True, default=str))
                for k, v in attrs.items()
                if k not in _unstable
            )
        )
        children = tuple(sorted(norm(child) for child in node.get("children", ())))
        return (node["name"], node["status"], kept, children)

    return tuple(sorted(norm(root) for root in roots))


#: The process-wide tracer every instrumented module imports.
tracer = Tracer()
