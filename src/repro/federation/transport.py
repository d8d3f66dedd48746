"""A simulated network between federation nodes.

In-process replacement for Celery/RabbitMQ: a send is a synchronous call into
the receiving node's handler.  The transport still behaves like a network
where it matters for the reproduction:

- traffic is metered (messages, payload bytes, table cells), globally and
  per job,
- a latency model accumulates *simulated* wall time (per-message latency plus
  bytes over bandwidth), so benchmarks can report modeled network cost,
- failure injection: nodes can be marked down, or links given a drop
  probability, raising :class:`NodeUnavailableError` like a timeout would,
- fault tolerance: a send that finds its receiver unavailable is re-sent
  up to ``retries`` times (the failure policy's count), with exponential
  backoff + jitter charged to the *simulated* clock.  Drop decisions and
  jitter units for every attempt are pre-drawn from the seeded RNG in
  request order before dispatch, so a seed fully determines which attempts
  fail, how many retries happen, and what the flow ultimately sees — at any
  fan-out width.  A message is dropped before delivery (a lost request),
  so a retry never re-executes a handler that already ran.

The production platform dispatches tasks to workers through a concurrent
task queue, so the master's fan-outs overlap.  :meth:`Transport.send_many`
and :meth:`Transport.broadcast` reproduce that: a shared thread pool
dispatches to every destination at once, each destination's handler is
serialized by a per-node lock (one mailbox per node), and the simulated
clock charges the *max* over a parallel group instead of the sum.  Setting
``max_workers=1`` restores fully sequential dispatch, including the summed
clock, for debugging and A/B benchmarking.
"""

from __future__ import annotations

import contextlib
import contextvars
import pickle
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import FederationError, NodeUnavailableError
from repro.federation.messages import Message
from repro.federation.serialization import payload_elements
from repro.observability.trace import tracer

Handler = Callable[[Message], dict[str, Any]]

#: Upper bound on the shared pool, matching common task-queue defaults.
MAX_POOL_SIZE = 32

#: Retry backoff: after failed attempt ``k`` (0-based) a send waits
#: ``min(BASE * 2**k, MAX)`` simulated seconds, scaled by a factor in
#: ``[1 - JITTER, 1 + JITTER]`` drawn from the seeded RNG.
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_MAX_SECONDS = 2.0
BACKOFF_JITTER = 0.25

#: A (receiver, kind, payload) triple for :meth:`Transport.send_many`.
Request = tuple[str, str, "dict[str, Any] | None"]

#: The job id traffic in the current execution context is attributed to.
#: Set by :meth:`Transport.job_scope` in the thread driving an experiment;
#: captured at the top of :meth:`Transport.send` / :meth:`Transport.send_many`
#: (the caller's thread) and passed explicitly into pool threads, so per-job
#: attribution is exact at any fan-out width.
_CURRENT_JOB: contextvars.ContextVar["str | None"] = contextvars.ContextVar(
    "repro_transport_job", default=None
)


def current_job() -> str | None:
    """The job id the calling context attributes traffic to, if any."""
    return _CURRENT_JOB.get()


@dataclass
class TransportStats:
    """Aggregate traffic counters.

    Mutation happens only under the owning transport's stats lock; reads
    from other threads are tear-free in CPython but callers wanting a
    consistent multi-field view should use :meth:`Transport.snapshot`.
    """

    messages: int = 0
    bytes_sent: int = 0
    simulated_seconds: float = 0.0
    retries: int = 0
    failed_sends: int = 0
    #: Table cells carried by metered payloads (both wire formats).
    payload_elements: int = 0

    def reset(self) -> None:
        self.messages = 0
        self.bytes_sent = 0
        self.simulated_seconds = 0.0
        self.retries = 0
        self.failed_sends = 0
        self.payload_elements = 0

    def copy(self) -> "TransportStats":
        """An independent copy; mutating it never touches live counters."""
        return TransportStats(
            self.messages,
            self.bytes_sent,
            self.simulated_seconds,
            self.retries,
            self.failed_sends,
            self.payload_elements,
        )


class BroadcastResult(dict):
    """``broadcast`` responses keyed by receiver, plus the skipped failures.

    A plain dict with a ``failed`` mapping of receiver -> error for the
    unreachable receivers the broadcast skipped.
    """

    def __init__(
        self,
        responses: "dict[str, dict[str, Any]]",
        failed: "dict[str, FederationError]",
    ) -> None:
        super().__init__(responses)
        self.failed = failed


@dataclass(frozen=True)
class _Schedule:
    """Pre-drawn randomness for one logical send: one drop decision per
    attempt plus one jitter unit per potential backoff."""

    drops: tuple[bool, ...]
    jitters: tuple[float, ...]


class Transport:
    """Registry of node handlers plus the simulated network model."""

    def __init__(
        self,
        latency_seconds: float = 0.0005,
        bandwidth_bytes_per_second: float = 1.25e8,
        drop_probability: float = 0.0,
        seed: int | None = None,
        max_workers: int | None = None,
        sleep_latency: bool = False,
        retries: int = 0,
    ) -> None:
        if not 0 <= drop_probability <= 1:
            raise FederationError("drop probability must be in [0, 1]")
        if max_workers is not None and max_workers < 1:
            raise FederationError("max_workers must be >= 1")
        if retries < 0:
            raise FederationError("retries must be >= 0")
        self.latency_seconds = latency_seconds
        self.bandwidth = bandwidth_bytes_per_second
        self.drop_probability = drop_probability
        self.max_workers = max_workers
        #: Re-sends after an unavailable attempt; the default retries never.
        self.retries = retries
        #: When True the modeled elapsed time of every message is actually
        #: slept, so wall-clock behavior matches a deployment where workers
        #: are separate machines (used by the scaling benchmarks).
        self.sleep_latency = sleep_latency
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._handlers: dict[str, Handler] = {}
        self._node_locks: dict[str, threading.Lock] = {}
        self._down: set[str] = set()
        self._stats_lock = threading.Lock()
        self.stats = TransportStats()
        # Per-job counters: traffic sent inside a job_scope() is additionally
        # charged to that job's meter, so overlapping experiments each see
        # exactly their own usage (the global counters keep the fleet view).
        self._job_stats: dict[str, TransportStats] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._executor_width = 0
        #: How many experiments may fan out at once; sizes the shared pool.
        self._concurrent_jobs = 1
        self._executor_lock = threading.Lock()
        #: The deterministic-simulation runtime driving this transport, or
        #: None in a real run.  Only ``create_federation(sim=...)`` sets it.
        self.sim = None
        #: Threads working on a job's behalf right now: ident -> job id.
        #: An attached sampling profiler reads it to attribute its samples
        #: (plain dict reads and writes are atomic under the GIL).
        self.thread_jobs: dict[int, str] = {}

    def register(self, node_id: str, handler: Handler) -> None:
        if node_id in self._handlers:
            raise FederationError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler
        self._node_locks[node_id] = threading.Lock()

    @contextlib.contextmanager
    def job_scope(self, job_id: str) -> Iterator[None]:
        """Attribute all traffic in this context to ``job_id``, and the
        calling thread to it in :attr:`thread_jobs`."""
        token = _CURRENT_JOB.set(job_id)
        try:
            with self._thread_bound(job_id):
                yield
        finally:
            _CURRENT_JOB.reset(token)

    @contextlib.contextmanager
    def _thread_bound(self, job_id: str | None) -> Iterator[None]:
        """Record the calling thread as working for ``job_id``; a thread
        already recorded (a nested scope) keeps its outer job."""
        ident = threading.get_ident()
        if job_id is None or ident in self.thread_jobs:
            yield
            return
        self.thread_jobs[ident] = job_id
        try:
            yield
        finally:
            del self.thread_jobs[ident]

    def nodes(self) -> list[str]:
        return sorted(self._handlers)

    @property
    def parallelism(self) -> int:
        """The effective fan-out width for group sends: ``max_workers``, else
        one thread per registered node (at most :data:`MAX_POOL_SIZE`)."""
        if self.max_workers is not None:
            return self.max_workers
        return max(1, min(MAX_POOL_SIZE, len(self._handlers)))

    def snapshot(self) -> TransportStats:
        """A consistent copy of the aggregate counters."""
        with self._stats_lock:
            return self.stats.copy()

    def job_stats(self, job_id: str) -> TransportStats:
        """A consistent copy of one job's traffic counters (zeros if unseen)."""
        with self._stats_lock:
            stats = self._job_stats.get(job_id)
            return stats.copy() if stats is not None else TransportStats()

    def drop_job_stats(self, job_id: str) -> None:
        """Forget a finished job's meter (attribution lives in its result)."""
        with self._stats_lock:
            self._job_stats.pop(job_id, None)

    def _job_meter(self, job_id: str | None) -> TransportStats | None:
        """The live per-job meter; callers must hold the stats lock."""
        if job_id is None:
            return None
        meter = self._job_stats.get(job_id)
        if meter is None:
            meter = self._job_stats[job_id] = TransportStats()
        return meter

    # ------------------------------------------------------ failure injection

    def set_down(self, node_id: str, down: bool = True) -> None:
        """Mark a node unreachable (simulates a crashed or partitioned node)."""
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    # ---------------------------------------------------------------- sending

    def send(self, sender: str, receiver: str, kind: str, payload: dict[str, Any] | None = None) -> dict[str, Any]:
        """Deliver one message (with retries) and return the response payload."""
        job = current_job()
        with tracer.span("transport.send", receiver=receiver, kind=kind) as span:
            outcome, elapsed = self._run_schedule(
                sender, receiver, kind, payload, self._draw_schedule(), span, job
            )
        with self._stats_lock:
            self.stats.simulated_seconds += elapsed
            meter = self._job_meter(job)
            if meter is not None:
                meter.simulated_seconds += elapsed
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def send_many(self, sender: str, requests: Sequence[Request]) -> list[Any]:
        """Deliver a group of messages concurrently; results in request order.

        Every slot holds its request's response or the exception that ended
        it: a failing destination never aborts or deadlocks the rest, and the
        caller decides what a failure means.

        Drop-probability decisions and backoff jitter are drawn from the
        seeded RNG in request order *before* dispatch, so failure injection
        and retries stay deterministic regardless of thread scheduling.  The
        simulated clock charges ``max()`` over the group (the sends overlap,
        including their backoff waits); with an effective parallelism of 1
        dispatch is sequential and the clock sums, exactly like
        per-destination loops.
        """
        if not requests:
            return []
        job = current_job()
        schedules = [self._draw_schedule() for _ in requests]
        width = min(self.parallelism, len(requests))
        # The group span is opened in the caller's thread and handed to every
        # pool thread explicitly, so per-worker send spans stay children of
        # the fan-out even though thread-local stacks do not cross threads.
        group_span = tracer.span(
            "transport.fanout", n=len(requests), kind=requests[0][1], width=width
        )

        def attempt(index: int) -> tuple[Any, float]:
            receiver, kind, payload = requests[index]
            # Pool threads work on the job's behalf for the duration of one
            # send; record them so profiler samples attribute correctly.
            with self._thread_bound(job), tracer.span(
                "transport.send", parent=group_span, receiver=receiver, kind=kind
            ) as span:
                return self._run_schedule(
                    sender, receiver, kind, payload, schedules[index], span, job
                )

        sim = self.sim
        with group_span:
            if width <= 1:
                outcomes = [attempt(i) for i in range(len(requests))]
                clock = sum(elapsed for _, elapsed in outcomes)
            elif sim is not None:
                # Simulation mode: the group still *models* parallel dispatch
                # (max-clock), but runs sequentially in a seeded order with
                # scheduler yields between sends, so the interleaving is a
                # pure function of the simulation seed and no pool threads
                # exist.
                outcomes = sim.run_fanout(len(requests), attempt)
                clock = max(elapsed for _, elapsed in outcomes)
            else:
                executor = self._ensure_executor()
                outcomes = list(executor.map(attempt, range(len(requests))))
                clock = max(elapsed for _, elapsed in outcomes)
        with self._stats_lock:
            self.stats.simulated_seconds += clock
            meter = self._job_meter(job)
            if meter is not None:
                meter.simulated_seconds += clock
        return [outcome for outcome, _ in outcomes]

    def broadcast(
        self,
        sender: str,
        receivers: Sequence[str],
        kind: str,
        payload: dict[str, Any] | None = None,
    ) -> BroadcastResult:
        """Send one message to many receivers; returns {receiver: response}.

        Unreachable receivers are skipped: they are absent from the result
        and recorded in its ``.failed`` mapping.  Any other error raises.
        """
        results = self.send_many(
            sender, [(receiver, kind, payload) for receiver in receivers]
        )
        responses: dict[str, dict[str, Any]] = {}
        failed: dict[str, FederationError] = {}
        for receiver, result in zip(receivers, results):
            if isinstance(result, NodeUnavailableError):
                failed[receiver] = result
            elif isinstance(result, BaseException):
                raise result
            else:
                responses[receiver] = result
        return BroadcastResult(responses, failed)

    # -------------------------------------------------------------- internals

    def _draw_schedule(self) -> _Schedule:
        """Pre-draw one send's randomness (drops + jitter) in request order.

        With no retries and a lossless link this consumes no RNG state at
        all.  Otherwise it draws one drop decision per attempt (only with
        ``drop_probability`` set), then one jitter unit per re-send.
        """
        attempts = self.retries + 1
        if not self.drop_probability and attempts == 1:
            return _Schedule((False,), ())
        with self._rng_lock:
            if self.drop_probability:
                drops = tuple(
                    self._rng.random() < self.drop_probability for _ in range(attempts)
                )
            else:
                drops = (False,) * attempts
            jitters = tuple(self._rng.random() for _ in range(attempts - 1))
        return _Schedule(drops, jitters)

    def _run_schedule(
        self,
        sender: str,
        receiver: str,
        kind: str,
        payload: dict[str, Any] | None,
        schedule: _Schedule,
        span=None,
        job: str | None = None,
    ) -> tuple[Any, float]:
        """One logical send: attempts + backoff, ``retries`` re-sends at most.

        Returns ``(response | exception, simulated seconds)``; never raises,
        so group dispatch can account the elapsed time of failures too.
        Unavailability is retried until the schedule runs out; any other
        error (a handler exception, an unknown node) surfaces immediately.
        When tracing, ``span`` records the retry count and the final outcome.
        """
        if span is None:
            from repro.observability.trace import NULL_SPAN

            span = NULL_SPAN
        total = 0.0
        for attempt, dropped in enumerate(schedule.drops):
            try:
                response, elapsed = self._send_one(
                    sender, receiver, kind, payload, dropped, job
                )
            except Exception as exc:  # noqa: BLE001 - classified below
                if not isinstance(exc, NodeUnavailableError):
                    self._record_failed_send(job)
                    span.set_error(f"{type(exc).__name__}: {exc}")
                    return exc, total
                # A failed attempt still costs its timeout detection.
                total += self.latency_seconds
                final = attempt + 1 == len(schedule.drops)
                if final:
                    self._record_failed_send(job)
                    span.set_attribute("retries", attempt)
                    span.set_error(f"{type(exc).__name__}: {exc}")
                    return exc, total
                delay = min(BACKOFF_BASE_SECONDS * (2**attempt), BACKOFF_MAX_SECONDS)
                unit = schedule.jitters[attempt]
                total += delay * (1 - BACKOFF_JITTER + 2 * BACKOFF_JITTER * unit)
                with self._stats_lock:
                    self.stats.retries += 1
                    meter = self._job_meter(job)
                    if meter is not None:
                        meter.retries += 1
                continue
            total += elapsed
            if attempt:
                span.set_attribute("retries", attempt)
            return response, total
        raise AssertionError("unreachable: schedule always resolves")

    def _record_failed_send(self, job: str | None = None) -> None:
        with self._stats_lock:
            self.stats.failed_sends += 1
            meter = self._job_meter(job)
            if meter is not None:
                meter.failed_sends += 1

    def reserve_fanout_slots(self, concurrent_jobs: int) -> None:
        """Size the shared fan-out pool for overlapping experiments.

        One experiment needs ``parallelism`` pool threads for a full-width
        fan-out; ``concurrent_jobs`` experiments dispatching at once need that
        many times over, or their (really slept, under ``sleep_latency``)
        sends queue behind each other and concurrency buys nothing.  The
        experiment queue calls this with its executor-pool size.  An existing
        smaller pool is retired (its in-flight work finishes on the old
        threads) and lazily replaced by a wider one.
        """
        with self._executor_lock:
            self._concurrent_jobs = max(self._concurrent_jobs, concurrent_jobs)
            if self._executor is not None and self._executor_width < self._pool_width():
                old = self._executor
                self._executor = None
                old.shutdown(wait=False)

    def _pool_width(self) -> int:
        return min(
            MAX_POOL_SIZE, max(2, self.parallelism) * max(1, self._concurrent_jobs)
        )

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor_width = self._pool_width()
                self._executor = ThreadPoolExecutor(
                    max_workers=self._executor_width,
                    thread_name_prefix="transport",
                )
            return self._executor

    def shutdown(self, wait: bool = True) -> None:
        """Retire the fan-out pool; a later group send lazily recreates it.

        Gives tests and short-lived embedders a deterministic way to reap
        the pool's (non-daemon) threads instead of waiting for GC.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def _send_one(
        self,
        sender: str,
        receiver: str,
        kind: str,
        payload: dict[str, Any] | None,
        dropped: bool,
        job: str | None = None,
    ) -> tuple[dict[str, Any], float]:
        """One request/response exchange; returns (response, simulated s)."""
        handler = self._handlers.get(receiver)
        if handler is None:
            raise FederationError(f"unknown node {receiver!r}")
        extra = 0.0
        sim = self.sim
        if sim is not None:
            # Fault injection gate: counts this delivery attempt and may
            # force a drop, add simulated delay, or crash/revive a node
            # (the down-check below then sees the new reachability).  No
            # scheduler yield happens in here — a send runs atomically.
            forced_drop, extra = sim.on_delivery(self, sender, receiver, kind)
            if forced_drop:
                raise NodeUnavailableError(
                    f"message {kind!r} from {sender!r} to {receiver!r} was "
                    "dropped (injected fault)"
                )
        if receiver in self._down or sender in self._down:
            raise NodeUnavailableError(f"node {receiver!r} is unreachable")
        if dropped:
            raise NodeUnavailableError(
                f"message {kind!r} from {sender!r} to {receiver!r} was dropped"
            )
        message = Message(sender, receiver, kind, payload or {})
        size = _payload_size(message.payload)
        elapsed = self._account(size, job, payload_elements(message.payload))
        node_lock = self._node_locks[receiver]
        with node_lock:
            response = handler(message)
        if response is None:
            response = {}
        elapsed += self._account(_payload_size(response), job, payload_elements(response))
        elapsed += extra
        if self.sleep_latency and elapsed > 0:
            time.sleep(elapsed)
        return response, elapsed

    def _account(self, size: int, job: str | None, elements: int) -> float:
        """Meter one message; returns its modeled elapsed seconds.

        The simulated clock is charged by the caller (sum for sequential
        sends, max over a parallel group).
        """
        elapsed = self.latency_seconds + size / self.bandwidth
        with self._stats_lock:
            self.stats.messages += 1
            self.stats.bytes_sent += size
            self.stats.payload_elements += elements
            meter = self._job_meter(job)
            if meter is not None:
                meter.messages += 1
                meter.bytes_sent += size
                meter.payload_elements += elements
        return elapsed


def _payload_size(payload: Any) -> int:
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - size metering must never break a send
        return 1024
