"""The active simulation: scheduler + fault plan + production integration.

A :class:`SimRuntime` reaches production code through one seam: the
harness passes it to ``create_federation(sim=...)``, which stores it as
``Transport.sim``, and every hook site reads it through an object it
already holds.  Production code calls exactly three things on it:

- ``on_delivery(transport, sender, receiver, kind)`` from
  ``Transport._send_one`` — counts deliveries and applies message faults
  (forced drops, extra delay, worker crash/revive) at deterministic points;
- ``run_fanout(n, attempt)`` from ``Transport.send_many`` — replaces the
  thread-pool dispatch of a parallel group with sequential execution in a
  seeded permutation order, yielding to the scheduler between sends (the
  clock still charges ``max()`` over the group, so fan-out *semantics* are
  unchanged — only the nondeterministic thread timing is gone);
- ``flow_step(label)`` from step boundaries (``ExperimentRunner.execute``,
  ``ExecutionContext.check_cancelled``, and
  ``Master.gather_transfers_secure`` before its SMPC aggregation) — counts
  steps, applies cancellation and master-crash faults, and yields.

``ExperimentQueue.start()`` / ``wait()`` additionally hand the runtime the
queue (``register_queue``; sim-mode queues spawn no worker threads — the
runtime dispatches claimed jobs as scheduler tasks, honoring
``max_concurrent``) and drive it until a job is done (``drive_until``).
A fired ``crash@N:master`` freezes the queue's durability manager, so the
dead "process" writes nothing more to its state directory.

Yield points are placed only where the calling thread holds no lock another
task could need (between fan-out attempts, at step boundaries before the
SMPC cluster lock, never inside a single ``send()``), so a parked task can
never deadlock the simulation; a violation trips the scheduler watchdog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ExperimentNotFoundError, MasterCrashError, SimTestError
from repro.simtest.faults import FaultPlan
from repro.simtest.scheduler import DEFAULT_STEP_TIMEOUT, SimScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.jobs import ExperimentQueue


class SimRuntime:
    """One deterministic simulation run."""

    def __init__(
        self,
        seed: int,
        parallelism: int = 1,
        faults: FaultPlan | None = None,
        step_timeout: float = DEFAULT_STEP_TIMEOUT,
    ) -> None:
        if parallelism < 1:
            raise SimTestError("parallelism must be >= 1")
        self.seed = seed
        self.parallelism = parallelism
        self.faults = faults or FaultPlan()
        self.scheduler = SimScheduler(seed, step_timeout=step_timeout)
        #: Scheduling decisions + fired faults, in order (see transcript()).
        self.transcript = self.scheduler.transcript
        self.deliveries = 0
        self.flow_steps = 0
        #: Workers a ``revive`` fault brought back (invariant checkers must
        #: not flag their later traffic as post-eviction resurrection).
        self.revived_workers: set[str] = set()
        #: Short names used in fault specs (``job1``) -> real experiment ids.
        self.job_aliases: dict[str, str] = {}
        #: Set once a ``crash@N:master`` fault fires.  From then on every
        #: simulation hook raises :class:`~repro.errors.MasterCrashError`,
        #: unwinding all in-flight tasks — the process is "dead", and the
        #: harness restarts the service from its state directory.
        self.master_crashed = False
        self._fired = [False] * len(self.faults.faults)
        self._queue: "ExperimentQueue | None" = None
        self._job_tasks: list[Any] = []

    def unfired(self) -> list[str]:
        """The specs of the plan's faults whose counter was never reached."""
        return [
            fault.spec()
            for fault, fired in zip(self.faults.faults, self._fired)
            if not fired
        ]

    def alias(self, name: str, job_id: str) -> None:
        """Map a fault-spec job name (``job1``) to a submitted experiment."""
        self.job_aliases[name] = job_id

    # ------------------------------------------------------- transport hooks

    def on_delivery(
        self, transport, sender: str, receiver: str, kind: str
    ) -> tuple[bool, float]:
        """Count one delivery attempt; returns (forced_drop, extra_seconds).

        Crash/revive faults flip the target's reachability on the transport
        *before* this delivery, so its own down-check sees the new state.
        """
        self._check_master_alive()
        self.deliveries += 1
        count = self.deliveries
        forced_drop = False
        extra = 0.0
        for index, fault in enumerate(self.faults.faults):
            if self._fired[index] or fault.at > count or fault.is_master_crash:
                continue
            if fault.kind == "drop":
                if fault.target is not None and fault.target != receiver:
                    continue
                self._fired[index] = True
                forced_drop = True
                self.transcript.append(
                    f"fault {fault.spec()} fired delivery={count} receiver={receiver}"
                )
            elif fault.kind == "delay":
                if fault.target is not None and fault.target != receiver:
                    continue
                self._fired[index] = True
                extra += fault.amount
                self.transcript.append(
                    f"fault {fault.spec()} fired delivery={count} receiver={receiver}"
                )
            elif fault.kind == "crash":
                self._fired[index] = True
                transport.set_down(fault.target, True)
                self.transcript.append(f"fault {fault.spec()} fired delivery={count}")
            elif fault.kind == "revive":
                self._fired[index] = True
                transport.set_down(fault.target, False)
                self.revived_workers.add(fault.target)
                self.transcript.append(f"fault {fault.spec()} fired delivery={count}")
        return forced_drop, extra

    def run_fanout(self, n: int, attempt: Callable[[int], Any]) -> list[Any]:
        """Dispatch a parallel group sequentially in seeded order.

        Results return indexed by original request position.  Called from a
        scheduler task, control yields before every send so other tasks can
        interleave mid-fan-out; called off-task (federation setup before the
        simulation is driven) the group just runs in permuted order.
        """
        order = self.scheduler.permute(n)
        if self._consume_reorder():
            order.reverse()
        results: list[Any] = [None] * n
        for index in order:
            self.scheduler.checkpoint(f"fanout[{index}]")
            self._check_master_alive()
            results[index] = attempt(index)
        return results

    def _consume_reorder(self) -> bool:
        reordered = False
        for index, fault in enumerate(self.faults.faults):
            if (
                not self._fired[index]
                and fault.kind == "reorder"
                and fault.at <= self.deliveries + 1
            ):
                self._fired[index] = True
                reordered = True
                self.transcript.append(
                    f"fault {fault.spec()} fired delivery={self.deliveries}"
                )
        return reordered

    # ------------------------------------------------------------ flow hooks

    def flow_step(self, label: str) -> None:
        """A step boundary: count, apply step faults (cancel, master crash),
        yield."""
        self._check_master_alive()
        self.flow_steps += 1
        count = self.flow_steps
        for index, fault in enumerate(self.faults.faults):
            if (
                self._fired[index]
                or fault.kind != "cancel"
                or fault.at < 1
                or fault.at > count
            ):
                continue
            self._fired[index] = True
            self._cancel(fault.target, f"fault {fault.spec()} fired step={count}")
        for index, fault in enumerate(self.faults.faults):
            if (
                self._fired[index]
                or not fault.is_master_crash
                or fault.at > count
            ):
                continue
            self._fired[index] = True
            self.master_crashed = True
            if self._queue is not None and self._queue.durability is not None:
                self._queue.durability.frozen = True
            self.transcript.append(f"fault {fault.spec()} fired step={count}")
        self._check_master_alive()
        self.scheduler.checkpoint(label)

    def _check_master_alive(self) -> None:
        if self.master_crashed:
            raise MasterCrashError("the simulated master process has crashed")

    def apply_predispatch_cancels(self) -> None:
        """Fire ``cancel@0`` faults (guaranteed pre-dispatch cancellation).

        The harness calls this after submitting jobs and before driving the
        scheduler, while every job is still queued.
        """
        for index, fault in enumerate(self.faults.faults):
            if self._fired[index] or fault.kind != "cancel" or fault.at != 0:
                continue
            self._fired[index] = True
            self._cancel(fault.target, f"fault {fault.spec()} fired pre-dispatch")

    def _cancel(self, target: str, note: str) -> None:
        job_id = self.job_aliases.get(target, target)
        if self._queue is None:
            self.transcript.append(f"{note} (no queue)")
            return
        try:
            initiated = self._queue.cancel(job_id)
        except ExperimentNotFoundError:
            self.transcript.append(f"{note} (unknown job {job_id})")
            return
        self.transcript.append(f"{note} job={job_id} initiated={initiated}")

    # --------------------------------------------------------- queue driving

    def register_queue(self, queue: "ExperimentQueue") -> None:
        if self._queue is not None and self._queue is not queue:
            raise SimTestError("a simulation drives exactly one experiment queue")
        self._queue = queue

    def _in_flight(self) -> int:
        return sum(1 for task in self._job_tasks if not task.done)

    def maybe_dispatch(self) -> bool:
        """Claim queued jobs into scheduler tasks up to the parallelism cap."""
        queue = self._queue
        if queue is None or self.master_crashed:
            return False
        dispatched = False
        while self._in_flight() < self.parallelism:
            job = queue.sim_claim()
            if job is None:
                break
            task = self.scheduler.spawn(
                f"job:{job.job_id}", lambda claimed=job: queue._execute_claimed(claimed)
            )
            self._job_tasks.append(task)
            dispatched = True
        return dispatched

    def drive(self) -> None:
        """Run dispatch + cooperative scheduling until the system is idle."""
        self._check_driver_thread()
        while True:
            dispatched = self.maybe_dispatch()
            stepped = self.scheduler.step_once()
            if not dispatched and not stepped:
                if (
                    self._queue is not None
                    and self._queue.sim_pending()
                    and not self.master_crashed
                ):
                    raise SimTestError("simulation stalled with queued jobs")
                return

    def drive_until(self, predicate: Callable[[], bool]) -> None:
        """Advance the simulation until ``predicate()`` holds (or it stalls)."""
        self._check_driver_thread()
        while not predicate():
            dispatched = self.maybe_dispatch()
            stepped = self.scheduler.step_once()
            if not dispatched and not stepped:
                raise SimTestError("simulation went idle before the awaited condition")

    def _check_driver_thread(self) -> None:
        if self.scheduler.current_task() is not None:
            raise SimTestError(
                "the simulation must be driven from outside its own tasks"
            )

    def unhandled_errors(self) -> list[tuple[str, BaseException]]:
        """Task-body exceptions that escaped the queue's error handling.

        A :class:`~repro.errors.MasterCrashError` is the *intended* unwind
        of a simulated crash, not an escape — tasks it killed are not
        failures.
        """
        return [
            (name, task.error)
            for name, task in sorted(self.scheduler.tasks.items())
            if task.error is not None
            and not isinstance(task.error, MasterCrashError)
        ]
