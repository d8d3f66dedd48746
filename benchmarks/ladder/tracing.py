"""Spans recorded by the benchmark around the program's calls into each layer.

Nothing under ``src/`` changes: :func:`installed` swaps the entry points of
every layer for wrappers that time the call, and puts the originals back on
exit.  Class methods are patched on the class; module functions are patched
in every ``repro.*`` module that imported them by name.

A span is the list ``[id, parent, layer, name, start, end, thread, job]``.
``parent`` is the innermost span open on the same thread.  A fan-out pool
thread has no open span of its own, so a message sent from one takes the open
``send_many`` span of the same job as its parent.  ``job`` is
``repro.federation.transport.current_job()`` where the program has set it,
the job the call names where it has not, and otherwise the parent's job.

Two wrapped methods are not public: ``Transport._send_one`` (the only call
that runs on a pool thread and still knows its job) and
``ExperimentQueue._execute_claimed`` (the executor-side entry point; without
it the queue's own work after ``ExperimentRunner.execute`` has no span).
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Iterator

ID, PARENT, LAYER, NAME, START, END, THREAD, JOB = range(8)

LAYERS = (
    "api",
    "core.jobs",
    "core.runner",
    "core.plan_executor",
    "federation.master",
    "federation.transport",
    "federation.serialization",
    "federation.worker",
    "udfgen",
    "engine.sql",
    "engine.udf",
    "smpc",
    "durability",
)


class Recorder:
    """Finished spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        #: job id -> id of that job's open ``send_many`` span.
        self.open_fanout: dict[str | None, int] = {}


def _job_of_send_one(args: tuple, kwargs: dict) -> str | None:
    return kwargs["job"] if "job" in kwargs else args[6] if len(args) > 6 else None


def _job_of_claimed(args: tuple, kwargs: dict) -> str | None:
    return args[1].job_id


def _wrap(
    original: Callable,
    layer: str,
    name: str,
    recorder: Recorder,
    job_of_call: Callable[[tuple, dict], str | None] | None = None,
    job_is_result: bool = False,
    fanout: bool = False,
) -> Callable:
    from repro.federation.transport import current_job

    clock = time.perf_counter
    thread_id = threading.get_ident
    local = recorder.local
    spans = recorder.spans
    ids = recorder.ids
    open_fanout = recorder.open_fanout

    def wrapper(*args, **kwargs):
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        job = job_of_call(args, kwargs) if job_of_call else current_job()
        parent = stack[-1][ID] if stack else open_fanout.get(job)
        span = [next(ids), parent, layer, name, clock(), 0.0, thread_id(), job]
        stack.append(span)
        if fanout:
            outer = open_fanout.get(job)
            open_fanout[job] = span[ID]
        try:
            result = original(*args, **kwargs)
            if job_is_result:
                span[JOB] = result
            return result
        finally:
            span[END] = clock()
            if fanout:
                if outer is None:
                    del open_fanout[job]
                else:
                    open_fanout[job] = outer
            stack.pop()
            spans.append(span)

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    return wrapper


def targets() -> list[tuple[Any, str, str, dict[str, Any]]]:
    """``(owner, attribute, layer, wrapper options)`` for every entry point."""
    from repro.api.service import MIPService
    from repro.core.jobs import ExperimentQueue
    from repro.core.plan_executor import PlanExecutor
    from repro.core.runner import ExperimentRunner
    from repro.durability.recovery import DurabilityManager
    from repro.engine import udf as engine_udf
    from repro.engine.database import Database
    from repro.federation import serialization
    from repro.federation.master import Master
    from repro.federation.transport import Transport
    from repro.federation.worker import Worker
    from repro.smpc.cluster import SMPCCluster
    from repro.udfgen import generator

    plain: dict[str, Any] = {}
    table: list[tuple[Any, str, str, dict[str, Any]]] = [
        # wait_experiment is not wrapped: it only blocks, and the root span
        # the generator measures (submit call -> wait return) covers it.
        (MIPService, "submit_experiment", "api", {"job_is_result": True}),
        (ExperimentQueue, "submit", "core.jobs", plain),
        (ExperimentQueue, "_execute_claimed", "core.jobs", {"job_of_call": _job_of_claimed}),
        (Transport, "send_many", "federation.transport", {"fanout": True}),
        (Transport, "_send_one", "federation.transport", {"job_of_call": _job_of_send_one}),
    ]
    for owner, layer, names in (
        (ExperimentRunner, "core.runner", ("execute", "build_context")),
        (PlanExecutor, "core.plan_executor", ("submit", "result", "flush", "close")),
        (
            Master,
            "federation.master",
            (
                "refresh_catalog",
                "run_local_step",
                "gather_transfers_plain",
                "gather_transfers_secure",
                "run_global_step",
                "store_global_transfer",
                "read_transfer",
                "broadcast_transfer",
                "cleanup",
                "drop_worker_tables",
            ),
        ),
        (Transport, "federation.transport", ("send", "broadcast")),
        (Worker, "federation.worker", ("handle",)),
        (Database, "engine.sql", ("execute", "query", "execute_statement")),
        (
            SMPCCluster,
            "smpc",
            ("import_shares", "drop_worker", "abort_job", "aggregate", "get_result"),
        ),
        (
            DurabilityManager,
            "durability",
            (
                "record_submit",
                "record_dispatch",
                "record_terminal",
                "record_read",
                "recover",
                "prepare_resume",
                "take_resume_reads",
                "close",
            ),
        ),
        (engine_udf, "engine.udf", ("run_udf",)),
        (
            generator,
            "udfgen",
            (
                "generate_udf_application",
                "run_udf_application",
                "generate_fused_application",
            ),
        ),
        (
            serialization,
            "federation.serialization",
            ("table_to_payload", "table_from_payload", "payload_elements"),
        ),
    ):
        table += [(owner, name, layer, plain) for name in names]
    return table


@contextlib.contextmanager
def installed() -> Iterator[Recorder]:
    """Wrap every layer's entry points; restore all of them on exit.

    Install before ``create_federation``: a worker registers its bound
    ``handle`` with the transport when the federation is built.
    """
    recorder = Recorder()
    patched: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, layer, options in targets():
            original = getattr(owner, attribute)
            label = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attribute}"
            wrapper = _wrap(original, layer, label, recorder, **options)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    module
                    for module_name, module in list(sys.modules.items())
                    if module_name.startswith("repro.")
                    and module is not owner
                    and getattr(module, attribute, None) is original
                ]
            for holder in holders:
                setattr(holder, attribute, wrapper)
                patched.append((holder, attribute, original))
        yield recorder
    finally:
        for holder, attribute, original in reversed(patched):
            setattr(holder, attribute, original)


# ------------------------------------------------------------- attribution

QUEUE_WAIT_LAYER = "core.jobs"
UNATTRIBUTED = "trace.unattributed"


def resolve_jobs(spans: list[list[Any]]) -> None:
    """Give every span without a job of its own its nearest ancestor's."""
    by_id = {span[ID]: span for span in spans}

    def job_of(span: list[Any]) -> str | None:
        if span[JOB] is None and span[PARENT] in by_id:
            span[JOB] = job_of(by_id[span[PARENT]])
        return span[JOB]

    for span in spans:
        job_of(span)


def tile(
    spans: list[list[Any]], start: float, end: float
) -> tuple[dict[str, float], dict[str, int]]:
    """Split one experiment's root interval among its layers, exactly.

    Each instant of ``[start, end]`` is divided equally among the
    experiment's open spans that have no open child and credited to their
    layers.  An instant at which only the root is open is queue wait
    (``core.jobs``) before ``ExperimentRunner.execute`` has started and
    unattributed after.  The credited seconds sum to ``end - start``.

    Returns ``(seconds per layer, calls per layer)``; a call is a span whose
    parent belongs to another layer.
    """
    by_id = {span[ID]: span for span in spans}
    calls: dict[str, int] = {}
    execute_start = end
    events: list[tuple[float, int, int, list[Any]]] = []
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is None or parent[LAYER] != span[LAYER]:
            calls[span[LAYER]] = calls.get(span[LAYER], 0) + 1
        if span[NAME] == "ExperimentRunner.execute":
            execute_start = min(execute_start, span[START])
        opened = min(max(span[START], start), end)
        closed = min(max(span[END], start), end)
        if closed > opened:
            events.append((opened, 1, span[ID], span))
            events.append((closed, 0, -span[ID], span))
    # At equal times: close before opening, children (higher ids) close
    # before their parents and open after them.
    events.sort(key=lambda event: event[:3])

    seconds: dict[str, float] = {}
    open_children: dict[int, int] = {}
    leaves: dict[int, str] = {}
    now = start

    def credit(until: float) -> None:
        span_of_time = until - now
        if span_of_time <= 0.0:
            return
        if leaves:
            share = span_of_time / len(leaves)
            for layer in leaves.values():
                seconds[layer] = seconds.get(layer, 0.0) + share
        else:
            layer = QUEUE_WAIT_LAYER if now < execute_start else UNATTRIBUTED
            seconds[layer] = seconds.get(layer, 0.0) + span_of_time

    for moment, opening, _order, span in events:
        credit(moment)
        now = max(now, moment)
        span_id, parent_id = span[ID], span[PARENT]
        if opening:
            open_children[span_id] = 0
            leaves[span_id] = span[LAYER]
            if parent_id in open_children:
                open_children[parent_id] += 1
                leaves.pop(parent_id, None)
        else:
            del open_children[span_id]
            leaves.pop(span_id, None)
            if parent_id in open_children:
                open_children[parent_id] -= 1
                if open_children[parent_id] == 0:
                    leaves[parent_id] = by_id[parent_id][LAYER]
    credit(end)
    return seconds, calls
