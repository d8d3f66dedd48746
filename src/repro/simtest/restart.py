"""Two-life crash/restart simulation: kill the master, recover, compare.

``crash@N:master`` scenarios cannot run as one linear simulation — the
fault kills the service mid-flow and everything interesting happens *after*
the process is gone.  :func:`run_crash_simulation` therefore runs two
"lives" against one durable state directory:

life 1
    a normal :class:`~repro.simtest.runtime.SimRuntime` with the full fault
    plan driving a ``MIPService(state_dir=...)`` until the crash unwinds
    every in-flight task (or, when the crash counter is never reached, to
    completion — the post-terminal cell of the crash matrix);
life 2
    a fresh runtime with the same seed and *no* faults (every one-shot
    fault belongs to life 1), a fresh federation, and a new service on the
    same state directory.  Constructing the service replays the journal,
    restores finished results into history, and re-enqueues interrupted
    jobs so they resume from their journaled reads.

The invariant suite is extended across the restart boundary: per-life
telemetry conservation (life 1 folds in the orphan meters of jobs the
crash killed), legal life-1 history *prefixes*, restart completeness
(every job terminal after life 2; restored results byte-identical to what
life 1 recorded), resume audit laws (``experiment_resumed`` in life 2, no
``experiment_finished`` in life 1 for a resumed job), the full single-life
checker over life 2, and — the durability acceptance law — byte-identical
results against an uninterrupted run of the same spec (checked when the
master crash is the only fault; other faults fire differently across the
two protocols, so byte equality is not a law there).

Nothing filesystem-specific (the temp state directory path) reaches the
transcript, so crash-scenario transcripts stay byte-comparable.
"""

from __future__ import annotations

import json
import tempfile
from typing import Any

from repro.api.service import MIPService
from repro.observability.audit import merged_events
from repro.simtest.faults import FaultPlan
from repro.simtest.invariants import InvariantChecker, InvariantReport
from repro.simtest.runtime import SimRuntime

#: Job states that mean "reached the end of its lifecycle".
_TERMINAL = ("success", "error", "cancelled")


def run_crash_simulation(spec) -> Any:
    """Run one ``crash@N:master`` scenario end to end (both lives)."""
    with tempfile.TemporaryDirectory(prefix="repro-sim-state-") as state_dir:
        return _run_two_lives(spec, state_dir)


def _canonical(result) -> str:
    """The byte-comparison form of a result (payload + status + error)."""
    return json.dumps(
        {"status": result.status.value, "result": result.result, "error": result.error},
        sort_keys=True,
    )


def _legal_prefix(history: tuple[str, ...]) -> bool:
    return any(
        history == legal[: len(history)]
        for legal in InvariantChecker._LEGAL_HISTORIES
    )


def _telemetry_totals(telemetries) -> dict[str, float]:
    return {
        "messages": sum(t.messages for t in telemetries),
        "bytes": sum(t.bytes_sent for t in telemetries),
        "smpc_rounds": sum(t.smpc_rounds for t in telemetries),
        "smpc_elements": sum(t.smpc_elements for t in telemetries),
    }


def _run_two_lives(spec, state_dir: str):
    from repro.simtest import harness

    # ------------------------------------------------------------- life 1
    runtime1 = SimRuntime(
        seed=spec.seed, parallelism=spec.parallelism, faults=spec.faults
    )
    federation1 = harness.create_federation_for_sim(spec, runtime1)
    service1 = MIPService(
        federation1, pool_size=spec.parallelism, state_dir=state_dir
    )
    baseline1 = federation1.transport.snapshot()
    cluster1 = federation1.smpc_cluster
    smpc_baseline1 = (
        (cluster1.communication.rounds, cluster1.communication.elements)
        if cluster1 is not None
        else (0, 0)
    )
    job_ids = []
    for index, request in enumerate(
        harness.sim_requests(spec.jobs, algo=spec.algo)
    ):
        job_id = f"sim_job_{index + 1}"
        runtime1.alias(f"job{index + 1}", job_id)
        service1.engine.submit(request, experiment_id=job_id)
        job_ids.append(job_id)
    runtime1.apply_predispatch_cancels()
    runtime1.drive()
    queue1 = service1.engine.queue
    histories1 = queue1.job_histories()
    life1_results = {}
    orphan_telemetry = {}
    for job_id in job_ids:
        history = histories1.get(job_id, ())
        if history and history[-1] in _TERMINAL:
            life1_results[job_id] = queue1.get(job_id)
        else:
            # The crash killed this job mid-flight; its per-job meters
            # were never collected into a result, so read them here for
            # the conservation law.
            orphan_telemetry[job_id] = queue1._collect_telemetry(job_id)
    life1_end = federation1.transport.snapshot()
    life1_smpc_end = (
        (cluster1.communication.rounds, cluster1.communication.elements)
        if cluster1 is not None
        else (0, 0)
    )
    life1_events = {
        job_id: merged_events(federation1.audit_logs(), job_id=job_id)
        for job_id in job_ids
    }
    service1.shutdown(wait=True)
    federation1.transport.shutdown()
    crashed = runtime1.master_crashed

    # ------------------------------------------------------------- life 2
    runtime2 = SimRuntime(
        seed=spec.seed, parallelism=spec.parallelism, faults=FaultPlan()
    )
    federation2 = harness.create_federation_for_sim(spec, runtime2)
    service2 = MIPService(
        federation2, pool_size=spec.parallelism, state_dir=state_dir
    )
    recovery = service2.recovery or {}
    baseline2 = federation2.transport.snapshot()
    cluster2 = federation2.smpc_cluster
    smpc_baseline2 = (
        (cluster2.communication.rounds, cluster2.communication.elements)
        if cluster2 is not None
        else (0, 0)
    )
    privacy_baseline2 = federation2.metrics_registry().snapshot()
    runtime2.drive()
    results = [service2.engine.get(job_id) for job_id in job_ids]
    histories2 = service2.engine.queue.job_histories()
    service2.shutdown(wait=True)
    resumed = set(recovery.get("resumed", ()))
    restored = set(recovery.get("restored", ()))
    resumed_results = [r for r in results if r.experiment_id in resumed]

    report = InvariantReport()
    _check_life1_conservation(
        report,
        life1_results,
        orphan_telemetry,
        baseline1,
        life1_end,
        smpc_baseline1,
        life1_smpc_end,
    )
    _check_life1_prefixes(report, histories1)
    _check_restart_completeness(
        report, spec, job_ids, results, life1_results, resumed, restored, crashed
    )
    _check_resume_audit(report, resumed, life1_events, federation2)
    checker2 = InvariantChecker(
        federation=federation2,
        results=resumed_results,
        histories=histories2,
        baseline=baseline2,
        smpc_baseline=smpc_baseline2,
        privacy_baseline=privacy_baseline2,
        oracles={
            result.experiment_id: oracle
            for result in resumed_results
            if result.status.value == "success"
            and not result.evicted
            and (oracle := harness.plain_oracle(result.request)) is not None
        },
        revived_workers=runtime2.revived_workers,
    )
    for name, ok, detail in checker2.check().entries:
        report.record(f"life2-{name}", ok, detail)
    federation2.transport.shutdown()
    _check_resume_determinism(report, spec, results)

    unhandled = runtime1.unhandled_errors() + runtime2.unhandled_errors()
    header = f"# sim {spec.spec()}"
    marker = (
        "# restart "
        f"restored={sorted(restored)} resumed={sorted(resumed)} "
        f"orphans={recovery.get('orphan_records', 0)}"
    )
    transcript = (
        "\n".join(
            [header, *runtime1.transcript, marker, *runtime2.transcript, report.format()]
        )
        + "\n"
    )
    return harness.SimReport(
        spec=spec,
        results=results,
        invariants=report,
        transcript=transcript,
        unhandled=unhandled,
        unfired=runtime1.unfired(),
    )


def _check_life1_conservation(
    report, life1_results, orphan_telemetry, baseline, end, smpc_baseline, smpc_end
) -> None:
    """Life-1 global meter deltas equal terminal-result telemetry plus the
    orphan meters of crash-killed jobs — the crash loses work, not
    accounting."""
    attributed = _telemetry_totals(
        [r.telemetry for r in life1_results.values()]
        + list(orphan_telemetry.values())
    )
    problems = []
    if attributed["messages"] != end.messages - baseline.messages:
        problems.append(
            f"messages: jobs={attributed['messages']} "
            f"global={end.messages - baseline.messages}"
        )
    if attributed["bytes"] != end.bytes_sent - baseline.bytes_sent:
        problems.append(
            f"bytes: jobs={attributed['bytes']} "
            f"global={end.bytes_sent - baseline.bytes_sent}"
        )
    if attributed["smpc_rounds"] != smpc_end[0] - smpc_baseline[0]:
        problems.append(
            f"smpc rounds: jobs={attributed['smpc_rounds']} "
            f"global={smpc_end[0] - smpc_baseline[0]}"
        )
    if attributed["smpc_elements"] != smpc_end[1] - smpc_baseline[1]:
        problems.append(
            f"smpc elements: jobs={attributed['smpc_elements']} "
            f"global={smpc_end[1] - smpc_baseline[1]}"
        )
    report.record(
        "life1-telemetry-conservation", not problems, "; ".join(sorted(problems))
    )


def _check_life1_prefixes(report, histories1) -> None:
    """Every life-1 history is a legal lifecycle path or a proper prefix of
    one (a crash may truncate a history but never scramble it)."""
    problems = [
        f"{job_id}: {'>'.join(histories1[job_id])}"
        for job_id in sorted(histories1)
        if not _legal_prefix(histories1[job_id])
    ]
    report.record("life1-legal-prefixes", not problems, "; ".join(problems))


def _check_restart_completeness(
    report, spec, job_ids, results, life1_results, resumed, restored, crashed
) -> None:
    """After life 2 every job is terminal; jobs that finished in life 1 were
    restored (not re-run) with byte-identical results; jobs the crash
    interrupted were resumed."""
    problems = []
    for result in results:
        if result.status.value not in _TERMINAL:
            problems.append(f"{result.experiment_id}: non-terminal after restart")
    for job_id in sorted(life1_results):
        if job_id not in restored:
            problems.append(f"{job_id}: finished in life 1 but not restored")
            continue
        recovered = next(r for r in results if r.experiment_id == job_id)
        if _canonical(recovered) != _canonical(life1_results[job_id]):
            problems.append(f"{job_id}: restored result differs from life 1")
    for job_id in sorted(set(job_ids) - set(life1_results)):
        if job_id not in resumed:
            problems.append(f"{job_id}: interrupted in life 1 but not resumed")
    if crashed and not resumed and len(life1_results) < len(job_ids):
        problems.append("crash fired but nothing was resumed")
    report.record("restart-completeness", not problems, "; ".join(problems))


def _check_resume_audit(report, resumed, life1_events, federation2) -> None:
    """A resumed job carries no ``experiment_finished`` from its first life
    and is audited ``experiment_resumed`` exactly once in its second."""
    problems = []
    logs2 = federation2.audit_logs()
    for job_id in sorted(resumed):
        names1 = [e["event"] for e in life1_events.get(job_id, ())]
        if "experiment_finished" in names1:
            problems.append(f"{job_id}: finished in life 1 yet resumed")
        events2 = merged_events(logs2, job_id=job_id, event="experiment_resumed")
        if len(events2) != 1:
            problems.append(
                f"{job_id}: expected 1 experiment_resumed audit, saw {len(events2)}"
            )
    report.record("restart-audit-completeness", not problems, "; ".join(problems))


def _check_resume_determinism(report, spec, results) -> None:
    """The acceptance law: when the master crash is the *only* fault, the
    crash-and-resume run must produce byte-identical per-job outcomes to an
    uninterrupted run of the same spec.  Mixed fault plans are skipped —
    their other one-shot faults fire at different counters across the two
    protocols, so byte equality is not a law there."""
    from repro.simtest import harness

    if len(spec.faults.master_crashes()) != len(spec.faults):
        report.record(
            "resume-determinism", True, "skipped (mixed fault plan)"
        )
        return
    clean = harness.run_simulation(spec.replace(faults=FaultPlan()))
    by_id = {r.experiment_id: r for r in clean.results}
    problems = []
    for result in results:
        reference = by_id.get(result.experiment_id)
        if reference is None:
            problems.append(f"{result.experiment_id}: missing from clean run")
        elif _canonical(result) != _canonical(reference):
            problems.append(
                f"{result.experiment_id}: differs from uninterrupted run"
            )
    detail = "; ".join(problems) if problems else f"compared={len(results)}"
    report.record("resume-determinism", not problems, detail)
