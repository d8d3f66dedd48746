"""Cooperative task scheduling over real threads.

The production runtime overlaps work with a fan-out thread pool and queue
executor threads; thread timing makes their interleaving nondeterministic.
:class:`SimScheduler` replaces timing with *choice*: each unit of concurrent
work becomes a :class:`SimTask` — a real (daemon) thread that is parked on a
semaphore whenever it is not the one task the scheduler has chosen to run.
At every yield point exactly one task is runnable, the scheduler picks the
next one with a seeded RNG over a sorted candidate list, and therefore the
complete interleaving is a pure function of the seed.

The ping-pong per task is two binary semaphores:

- the driver calls :meth:`SimTask.step`: release ``resume``, block on
  ``yielded``;
- the task thread calls :meth:`SimTask.wait_turn` inside
  :meth:`SimScheduler.checkpoint`: release ``yielded``, block on ``resume``.

At most one of driver/task is ever running, so task-visible state needs no
additional locking.  A task that blocks forever (e.g. a yield point placed
inside a lock another parked task holds) trips a watchdog timeout and raises
:class:`~repro.errors.SimTestError` with the stuck thread's stack, instead
of hanging the test run.
"""

from __future__ import annotations

import random
import sys
import threading
import traceback
from typing import Callable, Optional

from repro.errors import SimTestError

#: A task thread stuck past this many wall seconds is a harness bug
#: (a yield point inside a lock); fail loudly instead of hanging CI.
DEFAULT_STEP_TIMEOUT = 30.0


class SimTask:
    """One cooperatively-scheduled unit of work on a parked daemon thread."""

    def __init__(self, name: str, fn: Callable[[], None], scheduler: "SimScheduler") -> None:
        self.name = name
        self.scheduler = scheduler
        self.done = False
        self.error: BaseException | None = None
        #: The label of the last yield point this task parked at ("spawn"
        #: before the first step, "exit" once the body returned).
        self.last_label = "spawn"
        self._fn = fn
        self._resume = threading.Semaphore(0)
        self._yielded = threading.Semaphore(0)
        self._thread = threading.Thread(
            target=self._run, name=f"simtask-{name}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        # Park until the driver's first step; the task body never runs
        # concurrently with the driver or another task.
        self._resume.acquire()
        self.scheduler._bind(self)
        try:
            self._fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced by the driver
            self.error = exc
        finally:
            self.scheduler._unbind()
            self.done = True
            self.last_label = "exit"
            self._yielded.release()

    def step(self, timeout: float) -> str:
        """Run the task until its next yield point (driver side)."""
        self._resume.release()
        if not self._yielded.acquire(timeout=timeout):
            raise SimTestError(
                f"task {self.name!r} did not yield within {timeout}s "
                f"(last label {self.last_label!r}); stuck at:\n"
                f"{self._stack_dump()}"
            )
        return self.last_label

    def wait_turn(self, label: str) -> None:
        """Park at a yield point until the driver steps us again (task side)."""
        self.last_label = label
        self._yielded.release()
        self._resume.acquire()

    def _stack_dump(self) -> str:
        frame = sys._current_frames().get(self._thread.ident)
        if frame is None:
            return "  <thread exited>"
        return "".join(traceback.format_stack(frame))


class SimScheduler:
    """Seeded driver over a set of :class:`SimTask` s.

    ``rng`` is consumed only by scheduling decisions (task choice and
    fan-out permutations), never by the system under test — the transport
    keeps its own seeded RNG — so scheduler and workload randomness cannot
    perturb each other.
    """

    def __init__(self, seed: int, step_timeout: float = DEFAULT_STEP_TIMEOUT) -> None:
        self.seed = seed
        # A string seed hashes stably across processes (unlike tuples under
        # PYTHONHASHSEED), and the prefix decorrelates it from the transport
        # RNG when a federation reuses the same integer seed.
        self.rng = random.Random(f"simtest-scheduler-{seed}")
        self.step_timeout = step_timeout
        #: Every scheduling decision, in order: the deterministic transcript.
        self.transcript: list[str] = []
        self.tasks: dict[str, SimTask] = {}
        self._local = threading.local()

    # ------------------------------------------------------------- task side

    def _bind(self, task: SimTask) -> None:
        self._local.task = task

    def _unbind(self) -> None:
        self._local.task = None

    def current_task(self) -> Optional[SimTask]:
        """The SimTask owning the calling thread, or None off-task (driver
        thread, or production code running before the simulation starts)."""
        return getattr(self._local, "task", None)

    def checkpoint(self, label: str) -> None:
        """A yield point: hand control back to the driver, if on a task.

        Safe to call from anywhere — a non-task thread just keeps running,
        so hooks in production code need no mode checks of their own.
        """
        task = self.current_task()
        if task is not None:
            task.wait_turn(label)

    def permute(self, n: int) -> list[int]:
        """A seeded permutation of range(n) (fan-out dispatch order)."""
        order = list(range(n))
        self.rng.shuffle(order)
        return order

    # ----------------------------------------------------------- driver side

    def spawn(self, name: str, fn: Callable[[], None]) -> SimTask:
        """Create a parked task; it first runs when the driver steps it."""
        if name in self.tasks:
            raise SimTestError(f"duplicate sim task name {name!r}")
        task = SimTask(name, fn, self)
        self.tasks[name] = task
        self.transcript.append(f"spawn {name}")
        return task

    def runnable(self) -> list[SimTask]:
        """Unfinished tasks in name order (the RNG picks among these)."""
        return [task for _name, task in sorted(self.tasks.items()) if not task.done]

    def step_once(self) -> bool:
        """Advance one seeded-random runnable task to its next yield point.

        Returns False when no task is runnable.  A task body that raised is
        recorded in the transcript but not re-raised here — the queue layer
        owns error semantics; the runtime surfaces truly unhandled errors.
        """
        ready = self.runnable()
        if not ready:
            return False
        task = ready[self.rng.randrange(len(ready))] if len(ready) > 1 else ready[0]
        label = task.step(self.step_timeout)
        if task.done and task.error is not None:
            self.transcript.append(
                f"step {task.name} error {type(task.error).__name__}"
            )
        else:
            self.transcript.append(f"step {task.name} {label}")
        return True
