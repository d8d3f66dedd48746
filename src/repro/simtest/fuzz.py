"""Randomized search over (seed, fault plan, parallelism) scenarios.

The fuzzer samples :class:`~repro.simtest.harness.SimSpec` tuples, runs each
through :func:`~repro.simtest.harness.run_simulation`, and on the first
failure greedily shrinks the scenario — dropping faults one at a time,
reducing the job count, then the parallelism — to a minimal spec that still
fails, reported as a single replayable command line.  Because a spec fully
determines a simulation, the shrunk command reproduces the failure exactly
on any machine.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.simtest.faults import Fault, FaultPlan
from repro.simtest.harness import (
    ARCHETYPES,
    SIM_WORKERS,
    SimReport,
    SimSpec,
    repro_command,
    run_simulation,
)

#: Sampling ranges: delivery counters sized to a few experiments' traffic,
#: step counters to a few flows' checkpoints.
MAX_DELIVERY_AT = 80
MAX_STEP_AT = 16
PARALLELISM_CHOICES = (1, 2, 4, 8)
MAX_JOBS = 4
MAX_FAULTS = 3


@dataclass
class RunOutcome:
    """One simulation attempt: a report, or the exception that broke it."""

    spec: SimSpec
    report: SimReport | None = None
    error: BaseException | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or (self.report is not None and not self.report.ok)

    @property
    def unfired(self) -> list[str]:
        """Faults the run never reached; a replayed scenario counts them as
        failures, a random session only reports them."""
        return self.report.unfired if self.report is not None else []

    def fired_spec(self) -> SimSpec:
        """The spec without the faults the run never reached.

        An unfired fault changed nothing the run did (an unfired
        ``crash@N:master`` only chose the two-life harness, whose first life
        then ran to completion), so this spec replays the same run and every
        fault it names fires: the line a corpus can pin.
        """
        unfired = set(self.unfired)
        return self.spec.replace(
            faults=FaultPlan.of(f for f in self.spec.faults if f.spec() not in unfired)
        )

    def failures(self) -> list[str]:
        if self.error is not None:
            return [f"harness: {type(self.error).__name__}: {self.error}"]
        return self.report.failures() if self.report is not None else []


@dataclass
class FuzzResult:
    """The outcome of one fuzzing session."""

    runs: int
    elapsed_seconds: float
    #: Each run's :meth:`RunOutcome.fired_spec` (what ``write_corpus`` pins).
    specs: list[SimSpec] = field(default_factory=list)
    failure: RunOutcome | None = None
    shrunk: SimSpec | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def command(self) -> str | None:
        return repro_command(self.shrunk) if self.shrunk is not None else None


def run_one(spec: SimSpec) -> RunOutcome:
    """Run one scenario, capturing harness-level exceptions as failures."""
    try:
        return RunOutcome(spec, report=run_simulation(spec))
    except Exception as error:  # noqa: BLE001 - a crashing sim is a finding
        return RunOutcome(spec, error=error)


def sample_spec(rng: random.Random, master_crash: bool = False) -> SimSpec:
    """Draw one scenario (seed, parallelism, jobs, fault plan).

    With ``master_crash`` the kind pool additionally contains ``mcrash``
    (a ``crash@N:master`` step fault), so the durability CI lane fuzzes
    kill-and-restart recovery alongside the ordinary fault kinds.
    """
    jobs = rng.randint(1, MAX_JOBS)
    kinds = ("drop", "drop", "delay", "crash", "cancel", "reorder")
    if master_crash:
        kinds += ("mcrash", "mcrash")
    faults = []
    for _ in range(rng.randint(0, MAX_FAULTS)):
        kind = rng.choice(kinds)
        if kind == "mcrash":
            faults.append(Fault("crash", rng.randint(1, MAX_STEP_AT), "master"))
        elif kind == "drop":
            target = rng.choice((None,) + SIM_WORKERS)
            faults.append(Fault("drop", rng.randint(1, MAX_DELIVERY_AT), target))
        elif kind == "delay":
            faults.append(
                Fault(
                    "delay",
                    rng.randint(1, MAX_DELIVERY_AT),
                    rng.choice((None,) + SIM_WORKERS),
                    amount=rng.choice((0.01, 0.05, 0.25)),
                )
            )
        elif kind == "crash":
            worker = rng.choice(SIM_WORKERS)
            at = rng.randint(1, MAX_DELIVERY_AT)
            faults.append(Fault("crash", at, worker))
            if rng.random() < 0.5:
                faults.append(
                    Fault("revive", at + rng.randint(5, 30), worker)
                )
        elif kind == "cancel":
            faults.append(
                Fault("cancel", rng.randint(0, MAX_STEP_AT), f"job{rng.randint(1, jobs)}")
            )
        else:
            faults.append(Fault("reorder", rng.randint(1, MAX_DELIVERY_AT)))
    return SimSpec(
        seed=rng.randrange(2**32),
        parallelism=rng.choice(PARALLELISM_CHOICES),
        jobs=jobs,
        faults=FaultPlan.of(faults[:MAX_FAULTS]),
    )


def shrink(spec: SimSpec, still_fails: Callable[[SimSpec], bool] | None = None) -> SimSpec:
    """Greedy delta debugging to a locally-minimal failing spec.

    Each pass tries removing one fault, then lowering the job count, then
    the parallelism; passes repeat until a fixpoint.  ``still_fails``
    defaults to re-running the simulation (tests inject cheaper oracles).
    """
    if still_fails is None:
        still_fails = lambda candidate: run_one(candidate).failed  # noqa: E731
    changed = True
    while changed:
        changed = False
        for index in range(len(spec.faults)):
            candidate = spec.replace(faults=spec.faults.without(index))
            if still_fails(candidate):
                spec = candidate
                changed = True
                break
        if changed:
            continue
        for jobs in range(1, spec.jobs):
            candidate = spec.replace(jobs=jobs)
            if still_fails(candidate):
                spec = candidate
                changed = True
                break
        if changed:
            continue
        for parallelism in (1, 2, 4):
            if parallelism >= spec.parallelism:
                break
            candidate = spec.replace(parallelism=parallelism)
            if still_fails(candidate):
                spec = candidate
                changed = True
                break
    return spec


def fuzz(
    runs: int,
    seed: int = 0,
    budget_seconds: float | None = None,
    emit: Callable[[str], None] | None = None,
    master_crash: bool = False,
) -> FuzzResult:
    """Sample and run up to ``runs`` scenarios; shrink the first failure.

    ``budget_seconds`` additionally caps the session by wall time (the CI
    lane's randomized budget).  ``emit`` receives one progress line per run.
    ``master_crash`` admits ``crash@N:master`` faults into the sample pool.
    """
    rng = random.Random(f"simtest-fuzz-{seed}")
    started = time.monotonic()
    result = FuzzResult(runs=0, elapsed_seconds=0.0)
    for index in range(runs):
        if budget_seconds is not None and time.monotonic() - started >= budget_seconds:
            break
        spec = sample_spec(rng, master_crash=master_crash)
        outcome = run_one(spec)
        result.runs += 1
        result.specs.append(outcome.fired_spec())
        if emit is not None:
            status = "FAIL" if outcome.failed else "ok"
            unfired = f" (unfired: {','.join(outcome.unfired)})" if outcome.unfired else ""
            emit(f"[{index + 1}/{runs}] {status} {spec.spec()}{unfired}")
        if outcome.failed:
            if emit is not None:
                for line in outcome.failures():
                    emit(f"  {line}")
                emit("shrinking...")
            result.failure = outcome
            result.shrunk = shrink(spec)
            if emit is not None:
                emit(f"shrunk to: {result.shrunk.spec()}")
                emit(f"reproduce with: {repro_command(result.shrunk)}")
            break
    result.elapsed_seconds = time.monotonic() - started
    return result


def write_corpus(path: str, specs: list[SimSpec]) -> None:
    """Write scenario specs one per line (the replayable fuzz corpus)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# simtest corpus: one seed=...;par=...;jobs=...;faults=... per line\n")
        for spec in specs:
            handle.write(spec.spec() + "\n")


def read_corpus(path: str) -> list[SimSpec]:
    with open(path, "r", encoding="utf-8") as handle:
        return [
            SimSpec.parse(line)
            for line in handle
            if line.strip() and not line.lstrip().startswith("#")
        ]


__all__ = [
    "ARCHETYPES",
    "FuzzResult",
    "RunOutcome",
    "fuzz",
    "read_corpus",
    "run_one",
    "sample_spec",
    "shrink",
    "write_corpus",
]
