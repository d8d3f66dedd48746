"""Deterministic simulation testing for the federation runtime.

The subsystem virtualizes the platform's real concurrency — the transport
fan-out pool and the experiment queue's executor threads — into
cooperatively-scheduled tasks whose interleaving is a pure function of a
seed, layers a composable fault plan (drops, delays, reorders, crashes,
cancellations) on top, and checks system-wide invariants against the
observability layer after every run.

A :class:`~repro.simtest.runtime.SimRuntime` plugs in at one seam:
``create_federation(worker_data, config, sim=runtime)`` stores it as the
federation's ``Transport.sim``, and the hook sites (transport fan-out and
delivery, queue start/wait, flow step boundaries) read it from there.  A
federation built without ``sim=`` never schedules cooperatively, and no
production module imports this package.

Entry points: :func:`~repro.simtest.harness.run_simulation` for one
scenario, :func:`~repro.simtest.fuzz.fuzz` for randomized search with
shrinking, and the ``repro fuzz`` CLI for both.
"""

from repro.simtest.faults import Fault, FaultPlan
from repro.simtest.harness import SimReport, SimSpec, repro_command, run_simulation
from repro.simtest.invariants import InvariantChecker, InvariantReport
from repro.simtest.runtime import SimRuntime
from repro.simtest.scheduler import SimScheduler, SimTask

__all__ = [
    "Fault",
    "FaultPlan",
    "InvariantChecker",
    "InvariantReport",
    "SimReport",
    "SimRuntime",
    "SimScheduler",
    "SimSpec",
    "SimTask",
    "repro_command",
    "run_simulation",
]
