"""Run one complete deterministic simulation from a one-line spec.

A scenario is fully described by ``seed=S;par=P;jobs=N;faults=<plan>``:
the scheduler seed, the queue's concurrency, how many experiments to
submit (cycling through fixed request archetypes, with pinned ids
``sim_job_1`` … aliased ``job1`` … for fault targeting), and the fault
plan.  :func:`run_simulation` builds a fresh federation driven by a
:class:`~repro.simtest.runtime.SimRuntime` (``create_federation(sim=...)``),
drives every job to a terminal
state, runs the :class:`~repro.simtest.invariants.InvariantChecker`, and
returns a :class:`SimReport` whose ``transcript`` (interleaving decisions +
fired faults + invariant report) is byte-identical across runs of the same
spec.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.errors import SimTestError
from repro.federation.controller import FederationConfig, create_federation
from repro.federation.policy import FailurePolicy
from repro.simtest.faults import FaultPlan
from repro.simtest.invariants import InvariantChecker, InvariantReport
from repro.simtest.runtime import SimRuntime

import repro.algorithms  # noqa: F401  (register algorithms once)

#: The fixed sim-worker topology (names are valid fault targets).
SIM_WORKERS = ("hospital_a", "hospital_b", "hospital_c")
SIM_DATASETS = ("edsd", "adni", "ppmi")
SIM_ROWS = 120

#: Request archetypes submitted round-robin (descriptive stats first so a
#: one-job simulation exercises the secure min/max/sum/union operations).
ARCHETYPES: tuple[ExperimentRequest, ...] = (
    ExperimentRequest(
        algorithm="descriptive_stats",
        data_model="dementia",
        datasets=SIM_DATASETS,
        y=("lefthippocampus",),
        name="sim-descriptive",
    ),
    ExperimentRequest(
        algorithm="pearson_correlation",
        data_model="dementia",
        datasets=SIM_DATASETS,
        y=("lefthippocampus", "righthippocampus"),
        name="sim-pearson",
    ),
    ExperimentRequest(
        algorithm="linear_regression",
        data_model="dementia",
        datasets=SIM_DATASETS,
        y=("lefthippocampus",),
        x=("agevalue",),
        name="sim-linreg",
    ),
    ExperimentRequest(
        algorithm="ttest_onesample",
        data_model="dementia",
        datasets=SIM_DATASETS,
        y=("p_tau",),
        parameters={"mu": 50.0},
        name="sim-ttest",
    ),
    # Appended last so the round-robin of existing <=4-job corpus specs is
    # unchanged; crash-recovery scenarios select it with ``algo=``.
    ExperimentRequest(
        algorithm="logistic_regression",
        data_model="dementia",
        datasets=SIM_DATASETS,
        y=("converted_ad",),
        x=("p_tau",),
        # A fixed iteration budget below the convergence point: secure
        # fixed-point noise shifts *when* Newton converges (5 vs 6 rounds),
        # which would trip the exact `iterations` comparison against the
        # plain oracle; with a hard cap both paths run identical rounds.
        parameters={"max_iterations": 4, "tolerance": 0.0},
        name="sim-logistic",
    ),
    # Also appended last, for the same reason: the training flow (selected
    # with ``algo=federated_training``) resumes through the same journal.
    ExperimentRequest(
        algorithm="federated_training",
        data_model="dementia",
        datasets=SIM_DATASETS,
        y=("converted_ad",),
        x=("p_tau",),
        parameters={"mode": "newton", "rounds": 3},
        name="sim-training",
    ),
)

_SPEC_RE = re.compile(
    r"^seed=(?P<seed>\d+);par=(?P<par>\d+);jobs=(?P<jobs>\d+);faults=(?P<faults>.*?)"
    r"(?:;algo=(?P<algo>[a-z0-9_]+))?$"
)

_worker_data_cache: dict[int, dict[str, dict[str, Any]]] = {}
_oracle_cache: dict[tuple, dict[str, Any] | None] = {}


@dataclass(frozen=True)
class SimSpec:
    """One (seed, parallelism, jobs, fault plan) scenario.

    ``algo`` optionally pins every job to the archetype of one algorithm
    (``;algo=logistic_regression``) instead of the round-robin; it is
    emitted only when set, so pre-existing spec strings round-trip
    byte-identically.
    """

    seed: int
    parallelism: int = 1
    jobs: int = 1
    faults: FaultPlan = field(default_factory=FaultPlan)
    algo: str | None = None

    @classmethod
    def parse(cls, text: str) -> "SimSpec":
        match = _SPEC_RE.match(text.strip())
        if match is None:
            raise SimTestError(
                f"malformed sim spec {text!r} "
                "(expected seed=S;par=P;jobs=N;faults=...[;algo=NAME])"
            )
        return cls(
            seed=int(match.group("seed")),
            parallelism=int(match.group("par")),
            jobs=int(match.group("jobs")),
            faults=FaultPlan.parse(match.group("faults")),
            algo=match.group("algo"),
        )

    def spec(self) -> str:
        text = (
            f"seed={self.seed};par={self.parallelism};jobs={self.jobs};"
            f"faults={self.faults.spec()}"
        )
        if self.algo is not None:
            text += f";algo={self.algo}"
        return text

    def replace(self, **changes: Any) -> "SimSpec":
        from dataclasses import replace

        return replace(self, **changes)


@dataclass
class SimReport:
    """Everything one simulation produced."""

    spec: SimSpec
    results: list[Any]
    invariants: InvariantReport
    transcript: str
    unhandled: list[tuple[str, BaseException]]
    #: Faults of the plan that never fired (their counter was not reached):
    #: the run passed without testing them.
    unfired: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.invariants.ok and not self.unhandled

    def failures(self) -> list[str]:
        lines = [f"{name}: {detail}" for name, detail in self.invariants.failures()]
        lines.extend(
            f"unhandled in {task}: {type(error).__name__}: {error}"
            for task, error in self.unhandled
        )
        return lines


def repro_command(spec: SimSpec) -> str:
    """The single-line command that replays one scenario exactly."""
    return f"PYTHONPATH=src python -m repro fuzz --replay '{spec.spec()}'"


def sim_worker_data(rows: int = SIM_ROWS) -> dict[str, dict[str, Any]]:
    """Three deterministic hospital cohorts (cached: tables are read-only)."""
    if rows not in _worker_data_cache:
        _worker_data_cache[rows] = {
            worker: {
                "dementia": generate_cohort(
                    CohortSpec(dataset, rows, seed=11 * (index + 1))
                )
            }
            for index, (worker, dataset) in enumerate(zip(SIM_WORKERS, SIM_DATASETS))
        }
    return _worker_data_cache[rows]


def sim_requests(n: int, algo: str | None = None) -> list[ExperimentRequest]:
    if algo is not None:
        for archetype in ARCHETYPES:
            if archetype.algorithm == algo:
                return [archetype] * n
        raise SimTestError(f"no sim archetype for algorithm {algo!r}")
    return [ARCHETYPES[index % len(ARCHETYPES)] for index in range(n)]


def _build_federation(spec: SimSpec, runtime: SimRuntime):
    return create_federation(
        sim_worker_data(),
        FederationConfig(
            smpc_nodes=3,
            smpc_scheme="shamir",
            seed=spec.seed,
            failure_policy=FailurePolicy(retries=2, on_worker_loss="degrade"),
        ),
        sim=runtime,
    )


def run_simulation(spec: SimSpec) -> SimReport:
    """Execute one scenario end to end and check every invariant.

    Plans containing a ``crash@N:master`` fault cannot run as one linear
    life; they dispatch to the two-life kill-and-restart protocol in
    :mod:`repro.simtest.restart` (imported lazily — it needs this module).
    """
    if spec.faults.master_crashes():
        from repro.simtest.restart import run_crash_simulation

        return run_crash_simulation(spec)
    runtime = SimRuntime(
        seed=spec.seed, parallelism=spec.parallelism, faults=spec.faults
    )
    federation = create_federation_for_sim(spec, runtime)
    engine = ExperimentEngine(federation, max_concurrent=spec.parallelism)
    baseline = federation.transport.snapshot()
    cluster = federation.smpc_cluster
    smpc_baseline = (
        (cluster.communication.rounds, cluster.communication.elements)
        if cluster is not None
        else (0, 0)
    )
    privacy_baseline = federation.metrics_registry().snapshot()
    job_ids = []
    for index, request in enumerate(sim_requests(spec.jobs, algo=spec.algo)):
        job_id = f"sim_job_{index + 1}"
        runtime.alias(f"job{index + 1}", job_id)
        engine.submit(request, experiment_id=job_id)
        job_ids.append(job_id)
    runtime.apply_predispatch_cancels()
    runtime.drive()
    results = [engine.get(job_id) for job_id in job_ids]
    engine.shutdown(wait=True)
    # The oracle runs on its own federation built without ``sim=`` — real
    # (but still deterministic) machinery that adds nothing to the transcript.
    oracles = {
        result.experiment_id: oracle
        for result in results
        if result.status.value == "success"
        and not result.evicted
        and (oracle := plain_oracle(result.request)) is not None
    }
    report = InvariantChecker(
        federation=federation,
        results=results,
        histories=engine.queue.job_histories(),
        baseline=baseline,
        smpc_baseline=smpc_baseline,
        privacy_baseline=privacy_baseline,
        oracles=oracles,
        revived_workers=runtime.revived_workers,
    ).check()
    federation.transport.shutdown()
    unhandled = runtime.unhandled_errors()
    header = f"# sim {spec.spec()}"
    transcript = "\n".join(
        [header, *runtime.transcript, report.format()]
    ) + "\n"
    return SimReport(
        spec=spec,
        results=results,
        invariants=report,
        transcript=transcript,
        unhandled=unhandled,
        unfired=runtime.unfired(),
    )


def create_federation_for_sim(spec: SimSpec, runtime: SimRuntime):
    """Build the federation ``runtime`` drives (split out for test
    monkeypatching)."""
    return _build_federation(spec, runtime)


def plain_oracle(request: ExperimentRequest) -> dict[str, Any] | None:
    """The plain-aggregation result of a request on a clean federation.

    Cached per request — the fuzzer replays the same archetypes thousands
    of times.  Returns None when even the clean plain run fails (then the
    equivalence invariant has no oracle to compare against).
    """
    key = (
        request.algorithm,
        request.y,
        request.x,
        tuple(sorted(request.parameters.items())),
        request.datasets,
    )
    if key not in _oracle_cache:
        federation = create_federation(
            sim_worker_data(),
            FederationConfig(smpc_nodes=0, smpc_scheme="shamir", seed=7),
        )
        engine = ExperimentEngine(federation, aggregation="plain")
        try:
            result = engine.run(request)
            _oracle_cache[key] = (
                dict(result.result) if result.status.value == "success" else None
            )
        finally:
            engine.shutdown(wait=True)
            federation.transport.shutdown()
    return _oracle_cache[key]
