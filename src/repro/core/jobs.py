"""The asynchronous experiment job queue (the paper's Celery/RabbitMQ role).

The production MIP Master dispatches experiments through a task queue and
polls them by id; :class:`ExperimentQueue` reproduces that surface
in-process: a bounded priority queue with admission control, a pool of
executor threads, explicit job states

    PENDING → QUEUED → RUNNING → SUCCESS | ERROR | CANCELLED

``submit()`` returns immediately with the experiment id, ``wait()`` blocks
until a job finishes, and ``cancel()`` is guaranteed before dispatch and
cooperative after it (a per-context flag observed between flow steps).

The queue also owns per-job *resource attribution*: every executor thread
runs its experiment inside :meth:`~repro.federation.transport.Transport.job_scope`,
so :class:`~repro.core.experiment.ExperimentTelemetry` reads that job's own
meters — exact under concurrency, unlike the global before/after counter
diff it replaces.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    ExperimentCancelledError,
    ExperimentNotFoundError,
    MasterCrashError,
    QueueFullError,
    ReproError,
    SpecificationError,
)
from repro.federation.messages import new_job_id
from repro.observability.audit import AuditTrail, is_step_id
from repro.observability.critical_path import analyze_experiment
from repro.observability.metrics import Histogram
from repro.observability.trace import NULL_SPAN, tracer

#: Experiment wall-time buckets for the queue's latency histogram, sized for
#: the sub-second to tens-of-seconds range federated flows live in.
_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, float("inf")
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import ExperimentRunner

#: How often an idle executor worker re-checks whether its queue still
#: exists.  Submissions and shutdown wake workers immediately via the
#: condition; the timeout only bounds how long a worker outlives a queue
#: that was dropped without ``shutdown()``.
_WORKER_POLL_SECONDS = 0.25


def _queue_worker(queue_ref: "weakref.ref[ExperimentQueue]",
                  cond: threading.Condition) -> None:
    """Executor-pool worker loop, referencing its queue only weakly.

    The same idiom ``ThreadPoolExecutor`` uses: a worker thread is a GC
    root, so a loop bound to ``self`` would pin the queue — and through it
    the runner, the federation, and the transport pool — forever.  Holding
    a weakref (and dropping the strong deref before every wait) lets an
    abandoned queue be collected, at which point the worker notices and
    exits on its next wakeup.
    """
    while True:
        queue = queue_ref()
        if queue is None:
            return
        with cond:
            if queue._shutdown and not queue._heap:
                return
            if not queue._heap:
                del queue  # don't pin the queue while parked
                cond.wait(timeout=_WORKER_POLL_SECONDS)
                continue
            job = queue._claim_locked()
        if job is not None:
            queue._execute_claimed(job)


class JobState(enum.Enum):
    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    SUCCESS = "success"
    ERROR = "error"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.SUCCESS, JobState.ERROR, JobState.CANCELLED)


@dataclass(frozen=True)
class JobSnapshot:
    """An immutable point-in-time view of one queued experiment."""

    job_id: str
    algorithm: str
    name: str
    state: str
    priority: int
    wait_seconds: float | None
    elapsed_seconds: float | None
    error: str | None
    #: Time spent waiting for an executor: the final wait for dispatched
    #: jobs, the still-growing wait for jobs that are queued right now.
    queued_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "algorithm": self.algorithm,
            "name": self.name,
            "state": self.state,
            "priority": self.priority,
            "wait_seconds": self.wait_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "error": self.error,
            "queued_seconds": self.queued_seconds,
        }


class _Job:
    """Internal mutable job record; guarded by the queue's condition."""

    __slots__ = (
        "job_id",
        "request",
        "priority",
        "seq",
        "state",
        "history",
        "cancel_event",
        "done",
        "result",
        "unhandled",
        "submitted_wall",
        "started_wall",
        "finished_wall",
    )

    def __init__(self, job_id: str, request, priority: int, seq: int) -> None:
        self.job_id = job_id
        self.request = request
        self.priority = priority
        self.seq = seq
        self.state = JobState.PENDING
        #: Every state this job has been in, in order.  The simulation
        #: harness asserts state-machine legality over these histories.
        self.history: list[str] = [JobState.PENDING.value]
        self.cancel_event = threading.Event()
        self.done = threading.Event()
        self.result = None
        self.unhandled: BaseException | None = None
        self.submitted_wall = time.perf_counter()
        self.started_wall: float | None = None
        self.finished_wall: float | None = None

    def set_state(self, state: JobState) -> None:
        """Transition and record; callers hold the queue's condition."""
        self.state = state
        self.history.append(state.value)

    @property
    def wait_seconds(self) -> float | None:
        if self.started_wall is None:
            return None
        return self.started_wall - self.submitted_wall

    def snapshot(self) -> JobSnapshot:
        elapsed = None
        if self.started_wall is not None:
            end = self.finished_wall or time.perf_counter()
            elapsed = end - self.started_wall
        if self.started_wall is not None:
            queued = self.started_wall - self.submitted_wall
        elif self.state is JobState.QUEUED:
            queued = time.perf_counter() - self.submitted_wall
        else:
            queued = (self.finished_wall or self.submitted_wall) - self.submitted_wall
        return JobSnapshot(
            job_id=self.job_id,
            algorithm=self.request.algorithm,
            name=self.request.name,
            state=self.state.value,
            priority=self.priority,
            wait_seconds=self.wait_seconds,
            elapsed_seconds=elapsed,
            error=getattr(self.result, "error", None),
            queued_seconds=queued,
        )


class HistoryStore:
    """Thread-safe, insertion-ordered store of finished experiment results."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._results: dict[str, Any] = {}

    def put(self, experiment_id: str, result) -> None:
        with self._lock:
            self._results[experiment_id] = result

    def get(self, experiment_id: str):
        with self._lock:
            try:
                return self._results[experiment_id]
            except KeyError:
                raise ExperimentNotFoundError(
                    f"no such experiment: {experiment_id!r}"
                ) from None

    def list(self) -> list:
        with self._lock:
            return list(self._results.values())


class ExperimentQueue:
    """Bounded priority queue + executor pool over an ExperimentRunner.

    ``max_concurrent`` is the executor pool size (how many experiments run
    at once); ``max_queued`` bounds the jobs *waiting* for an executor —
    one submission past it raises :class:`~repro.errors.QueueFullError`
    (admission control, so a traffic burst degrades loudly instead of
    accumulating unbounded state).
    """

    def __init__(
        self,
        runner: "ExperimentRunner",
        max_concurrent: int = 1,
        max_queued: int = 128,
        durability=None,
    ) -> None:
        if max_concurrent < 1:
            raise QueueFullError("max_concurrent must be >= 1")
        if max_queued < 1:
            raise QueueFullError("max_queued must be >= 1")
        self.runner = runner
        #: Optional :class:`~repro.durability.recovery.DurabilityManager`;
        #: when set, every lifecycle transition is journaled — submit and
        #: terminal records are fsync'd before the transition is visible.
        self.durability = durability
        self.max_concurrent = max_concurrent
        self.max_queued = max_queued
        self.history = HistoryStore()
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, job_id)
        self._jobs: dict[str, _Job] = {}
        self._seq = itertools.count()
        self._queued_count = 0
        self._running_count = 0
        self._threads: list[threading.Thread] = []
        self._shutdown = False
        #: Finished-experiment wall times; ``repro health`` and the SLO
        #: layer estimate latency percentiles from these buckets.
        self.latency = Histogram(
            "repro_experiment_duration_seconds",
            "Wall time of finished experiments (success, error or cancelled).",
            buckets=_LATENCY_BUCKETS,
        )
        #: An attached :class:`~repro.observability.profiler.SamplingProfiler`;
        #: when set (and running), every finished job carries its own
        #: collapsed-stack profile on ``ExperimentResult.profile``.
        self.profiler = None
        # Lifetime counters for the unified metrics registry.
        self._submitted_total = 0
        self._succeeded_total = 0
        self._failed_total = 0
        self._cancelled_total = 0
        self._wait_seconds_total = 0.0

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spin up the executor pool (idempotent; submit() calls this).

        Under an active simulation no worker threads exist at all: the
        queue registers itself with the runtime, which claims jobs through
        :meth:`sim_claim` and executes them as cooperatively-scheduled
        tasks — dispatch order and overlap become a function of the seed.
        """
        sim = self.runner.federation.transport.sim
        if sim is not None:
            sim.register_queue(self)
            return
        with self._cond:
            if self._threads or self._shutdown:
                return
            # Concurrent experiments fan out concurrently; give the shared
            # transport pool enough threads that their sends overlap.
            self.runner.federation.transport.reserve_fanout_slots(self.max_concurrent)
            for index in range(self.max_concurrent):
                thread = threading.Thread(
                    target=_queue_worker,
                    args=(weakref.ref(self), self._cond),
                    name=f"experiment-queue-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for in-flight jobs."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
            threads = list(self._threads)
        if wait:
            for thread in threads:
                thread.join(timeout=30)

    # ------------------------------------------------------------- submission

    def submit(self, request, priority: int = 0, experiment_id: str | None = None) -> str:
        """Enqueue one experiment; returns its id immediately.

        ``priority`` orders dispatch (higher first, FIFO within a level).
        ``experiment_id`` is normally generated; tests pin it for
        byte-stable comparisons.
        """
        if experiment_id is not None and is_step_id(experiment_id):
            raise SpecificationError(
                f"experiment id {experiment_id!r} reads as a step id "
                "(an '_' followed by s<n>, read<n> or bcast)"
            )
        job_id = experiment_id or new_job_id("exp")
        with self._cond:
            if self._shutdown:
                raise QueueFullError("the experiment queue is shut down")
            if self._queued_count >= self.max_queued:
                raise QueueFullError(
                    f"queue full: {self._queued_count} jobs waiting "
                    f"(max_queued={self.max_queued})"
                )
            if job_id in self._jobs:
                raise QueueFullError(f"job {job_id!r} is already submitted")
            if self.durability is not None:
                # Write-ahead: the submit record is durable before the job
                # becomes claimable, so a crash can never run a job the
                # journal does not know about.
                self.durability.record_submit(job_id, request, priority)
            job = _Job(job_id, request, priority, next(self._seq))
            self._jobs[job_id] = job
            job.set_state(JobState.QUEUED)
            heapq.heappush(self._heap, (-priority, job.seq, job_id))
            self._queued_count += 1
            self._submitted_total += 1
            self._cond.notify()
        self.start()
        return job_id

    def wait(self, job_id: str, timeout: float | None = None):
        """Block until a job finishes; returns its ExperimentResult."""
        job = self._get_job(job_id)
        sim = self.runner.federation.transport.sim
        if sim is not None and not job.done.is_set():
            # No executor threads exist under simulation: drive the
            # cooperative scheduler until this job reaches a terminal state.
            sim.drive_until(job.done.is_set)
        if not job.done.wait(timeout):
            raise TimeoutError(f"experiment {job_id!r} did not finish in {timeout}s")
        if job.unhandled is not None:
            raise job.unhandled
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: guaranteed before dispatch, cooperative after.

        Returns True when cancellation was initiated (the job was queued or
        running), False when the job had already finished.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ExperimentNotFoundError(f"no such experiment: {job_id!r}")
            if job.state.finished:
                return False
            if job.state is JobState.RUNNING:
                # Cooperative: the flow observes the flag between steps.
                job.cancel_event.set()
                return True
            # Still queued: take it off the books right here.  The heap entry
            # becomes a tombstone the executor skips.
            job.cancel_event.set()
            self._queued_count -= 1
            self._finalize_locked(job, self._cancelled_result(job))
        if self.durability is not None:
            self.durability.record_terminal(job_id, job.result)
        master_audit = self.runner.federation.master.audit
        master_audit.record(
            "experiment_cancelled", job_id=job_id, pre_dispatch=True
        )
        return True

    # ----------------------------------------------------------------- lookup

    def _get_job(self, job_id: str) -> _Job:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise ExperimentNotFoundError(f"no such experiment: {job_id!r}")
        return job

    def get(self, experiment_id: str):
        """A finished experiment's result (the polling surface)."""
        return self.history.get(experiment_id)

    def job(self, job_id: str) -> JobSnapshot:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ExperimentNotFoundError(f"no such experiment: {job_id!r}")
            return job.snapshot()

    def jobs(self) -> list[JobSnapshot]:
        """Snapshots of every known job in submission order."""
        with self._cond:
            return [job.snapshot() for job in sorted(self._jobs.values(), key=lambda j: j.seq)]

    def stats(self) -> dict[str, Any]:
        """Queue health for the unified metrics registry."""
        with self._cond:
            return {
                "depth": self._queued_count,
                "running": self._running_count,
                "pool_size": self.max_concurrent,
                "max_queued": self.max_queued,
                "submitted_total": self._submitted_total,
                "succeeded_total": self._succeeded_total,
                "failed_total": self._failed_total,
                "cancelled_total": self._cancelled_total,
                "wait_seconds_total": self._wait_seconds_total,
            }

    # -------------------------------------------------------------- execution

    def _claim_locked(self) -> "_Job | None":
        """Pop and claim the highest-priority job; callers hold the cond.

        Returns None when the popped entry was a pre-dispatch-cancel
        tombstone (the caller just tries again).
        """
        _neg_priority, _seq, job_id = heapq.heappop(self._heap)
        # .get, not [..]: a heap entry can outlive its job (e.g. recovery
        # replaying a journal that references a pruned job) — treat it as a
        # tombstone instead of leaking a bare KeyError out of the executor.
        job = self._jobs.get(job_id)
        if job is None or job.state is not JobState.QUEUED:
            return None
        job.set_state(JobState.RUNNING)
        job.started_wall = time.perf_counter()
        self._queued_count -= 1
        self._running_count += 1
        self._wait_seconds_total += job.wait_seconds or 0.0
        return job

    def _execute_claimed(self, job: _Job) -> None:
        """Run one claimed job to a terminal state (any executor context)."""
        if self.durability is not None:
            self.durability.record_dispatch(job.job_id)
        try:
            result = self._run_job(job)
        except MasterCrashError:
            # Simulated master crash: the "process" died mid-flow.  No
            # finalize, no terminal journal record — recovery re-enqueues
            # the job from its last journaled read after restart.  (The finally
            # below still releases the executor slot.)
            return
        finally:
            with self._cond:
                self._running_count -= 1
        # Journal the terminal record *before* waiters can observe the
        # result: once wait() returns, the caller may exit the process, and
        # an acknowledged result must already be durable.  finally: even a
        # failing journal write must not leave waiters hanging.
        try:
            if self.durability is not None:
                self.durability.record_terminal(job.job_id, result)
        finally:
            with self._cond:
                self._finalize_locked(job, result)

    # ------------------------------------------------------- simulation mode

    def sim_claim(self) -> "_Job | None":
        """Non-blocking claim for the simulation runtime's dispatcher."""
        with self._cond:
            while self._heap:
                job = self._claim_locked()
                if job is not None:
                    return job
            return None

    def sim_pending(self) -> int:
        """Jobs still waiting for dispatch (stall detection in simulations)."""
        with self._cond:
            return self._queued_count

    def job_histories(self) -> dict[str, tuple[str, ...]]:
        """Every job's recorded state history, keyed by id."""
        with self._cond:
            return {job_id: tuple(job.history) for job_id, job in self._jobs.items()}

    def _finalize_locked(self, job: _Job, result) -> None:
        job.finished_wall = time.perf_counter()
        if job.started_wall is not None:
            self.latency.observe(job.finished_wall - job.started_wall)
        job.set_state(JobState(result.status.value))
        if job.state is JobState.SUCCESS:
            self._succeeded_total += 1
        elif job.state is JobState.ERROR:
            self._failed_total += 1
        else:
            self._cancelled_total += 1
        job.result = result
        self.history.put(job.job_id, result)
        job.done.set()
        self._cond.notify_all()

    def _run_job(self, job: _Job):
        """Execute one experiment with per-job accounting and lifecycle."""
        from repro.core.experiment import ExperimentResult, ExperimentStatus

        runner = self.runner
        federation = runner.federation
        request = job.request
        experiment_id = job.job_id
        master_audit = federation.master.audit
        # Everything this run records lands after these lengths, so the
        # trail reads each log's tail instead of every job's history.  A
        # resumed job was audited `experiment_resumed` at recovery, before
        # it ran: its trail reads from the start.
        audit_logs = federation.audit_logs()
        audit_marks = [len(log) for log in audit_logs]
        if self.durability is not None and experiment_id in self.durability.resumed_jobs:
            audit_marks = None
        started = time.perf_counter()
        info: dict[str, Any] = {}
        with federation.transport.job_scope(experiment_id):
            master_audit.record(
                "experiment_started",
                job_id=experiment_id,
                algorithm=request.algorithm,
                data_model=request.data_model,
                datasets=sorted(request.datasets),
            )
            self._emit_queued_span(job)
            with tracer.span(
                "experiment", experiment=experiment_id, algorithm=request.algorithm
            ) as root_span:
                result_data: dict[str, Any] = {}
                workers: tuple[str, ...] | None = None
                status, error = ExperimentStatus.SUCCESS, None
                try:
                    result_data, workers = runner.execute(
                        request, experiment_id, cancel_event=job.cancel_event, info=info
                    )
                except ExperimentCancelledError as exc:
                    root_span.set_error(f"{type(exc).__name__}: {exc}")
                    status = ExperimentStatus.CANCELLED
                    error = str(exc) or f"experiment {experiment_id} was cancelled"
                except ReproError as exc:
                    root_span.set_error(f"{type(exc).__name__}: {exc}")
                    status, error = ExperimentStatus.ERROR, f"{type(exc).__name__}: {exc}"
                except MasterCrashError:
                    # A simulated crash is process death, not a job failure:
                    # it must not be converted into an ERROR result (the
                    # in-memory state is about to vanish anyway).
                    raise
                except BaseException as exc:  # noqa: BLE001 - reraised in wait()
                    # A programming error must not kill the executor thread;
                    # it surfaces to whoever wait()s on the job, exactly like
                    # the synchronous engine would have raised it.
                    root_span.set_error(f"{type(exc).__name__}: {exc}")
                    job.unhandled = exc
                    status, error = ExperimentStatus.ERROR, f"{type(exc).__name__}: {exc}"
                result = ExperimentResult(
                    experiment_id=experiment_id,
                    request=request,
                    status=status,
                    result=result_data,
                    error=error,
                    elapsed_seconds=time.perf_counter() - started,
                    workers=tuple(info.get("workers", ())) if workers is None else workers,
                    telemetry=self._collect_telemetry(experiment_id),
                    evicted=tuple(info.get("evicted", ())),
                )
            master_audit.record(
                "experiment_finished",
                job_id=experiment_id,
                status=result.status.value,
                elapsed_seconds=round(result.elapsed_seconds, 6),
            )
        result.audit = AuditTrail(audit_logs, job_id=experiment_id, since=audit_marks)
        if tracer.enabled:
            report = analyze_experiment(experiment_id)
            if report is not None:
                result.critical_path = report.to_dict()
        profiler = self.profiler
        if profiler is not None:
            result.profile = profiler.collapsed(job=experiment_id)
        self._drop_job_meters(experiment_id)
        return result

    def _emit_queued_span(self, job: _Job) -> None:
        """Record the job's time-in-queue as an ``experiment.queued`` span.

        The span is opened and closed in the executor thread (span stacks are
        thread-local) and backdated to the submission instant, so traces show
        the full PENDING→RUNNING wait as a distinct phase.  The wait duration
        lives only in the (normalized-away) timestamps, keeping trace trees
        byte-deterministic across runs.
        """
        with tracer.span(
            "experiment.queued", experiment=job.job_id, priority=job.priority
        ) as span:
            if span is not NULL_SPAN:
                span.start_wall = job.submitted_wall

    def _collect_telemetry(self, experiment_id: str):
        """This job's exact resource usage, read from the per-job meters."""
        from repro.core.experiment import ExperimentTelemetry

        federation = self.runner.federation
        stats = federation.transport.job_stats(experiment_id)
        rounds = elements = 0
        cluster = federation.smpc_cluster
        if cluster is not None:
            communication = cluster.job_communication(experiment_id)
            rounds, elements = communication.rounds, communication.elements
        return ExperimentTelemetry(
            messages=stats.messages,
            bytes_sent=stats.bytes_sent,
            simulated_network_seconds=stats.simulated_seconds,
            smpc_rounds=rounds,
            smpc_elements=elements,
        )

    def _drop_job_meters(self, experiment_id: str) -> None:
        """Release a finished job's meters and its retained SMPC results;
        its result holds the numbers."""
        federation = self.runner.federation
        federation.transport.drop_job_stats(experiment_id)
        if federation.smpc_cluster is not None:
            federation.smpc_cluster.forget_jobs(experiment_id)

    def _cancelled_result(self, job: _Job):
        """The result of a job cancelled while still pending."""
        from repro.core.experiment import ExperimentResult, ExperimentStatus

        return ExperimentResult(
            experiment_id=job.job_id,
            request=job.request,
            status=ExperimentStatus.CANCELLED,
            error=f"experiment {job.job_id} was cancelled before dispatch",
        )
