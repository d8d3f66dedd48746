"""System-wide laws checked after every simulated experiment batch.

The checker treats the observability layer as the oracle: transport meters,
job state histories, the append-only audit logs and the privacy counters
must agree with each other and with the experiment results no matter how
the scheduler interleaved the run or which faults fired.  Every check
produces a deterministic report line (no wall times, stable ordering, fixed
float formatting), so the invariant report is part of the byte-comparable
simulation transcript.

Invariants:

``telemetry-conservation``
    The per-job meters each result carries sum exactly to the delta of the
    global :class:`~repro.federation.transport.TransportStats` (and the SMPC
    protocol meter) over the run — attribution neither loses nor invents
    traffic.
``meter-hygiene``
    No per-job transport or SMPC meters survive their job (each finished
    job's meters were dropped after its result captured them).
``job-lifecycle``
    Every job's state history is a legal path of
    PENDING -> QUEUED [-> RUNNING] -> SUCCESS | ERROR | CANCELLED, with no
    states after a terminal one (no resurrection after cancel).
``audit-completeness``
    Lifecycle events exist for every job; every secure aggregate is
    preceded by ``aggregate_shared(path=smpc)`` share events from exactly
    its contributing workers; evictions in results and audit logs match
    one-to-one; no evicted worker contributes after its eviction step.
``smpc-plain-equivalence``
    For successful, zero-eviction experiments, the secure result equals a
    plain-aggregation oracle of the same request within fixed-point
    tolerance.
``privacy-monotonicity``
    Per-experiment ``privacy_spend`` totals never decrease, and the
    federation's privacy counters never ran backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.federation.transport import TransportStats
from repro.observability.audit import merged_events

#: Relative tolerance for secure-vs-plain value comparison (fixed-point
#: encoding error dominates; see smpc.encoding).
EQUIVALENCE_REL_TOL = 1e-4
EQUIVALENCE_ABS_TOL = 1e-6


@dataclass
class InvariantReport:
    """Ordered invariant outcomes; formats to deterministic text."""

    entries: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.entries)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.entries if not ok]

    def format(self) -> str:
        lines = []
        for name, ok, detail in self.entries:
            status = "ok" if ok else "FAIL"
            lines.append(f"invariant {name} {status}" + (f" {detail}" if detail else ""))
        return "\n".join(lines)


class InvariantChecker:
    """Checks the six system-wide laws over one finished simulation.

    ``results`` are the batch's :class:`~repro.core.experiment.ExperimentResult`
    objects in submission order; ``histories`` maps job id to its recorded
    state history; ``baseline``/``smpc_baseline`` are counter snapshots and
    ``privacy_baseline`` the federation's metrics snapshot, taken after
    federation setup and before the first submission; ``oracles`` maps
    eligible job ids to plain-aggregation result dicts; ``revived_workers``
    are workers a fault revived (exempt from cross-experiment resurrection
    complaints).
    """

    def __init__(
        self,
        federation,
        results: Sequence[Any],
        histories: Mapping[str, Sequence[str]],
        baseline: TransportStats,
        smpc_baseline: tuple[int, int],
        privacy_baseline: Mapping[str, Any],
        oracles: Mapping[str, Mapping[str, Any]] | None = None,
        revived_workers: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        self.federation = federation
        self.results = list(results)
        self.histories = {job: tuple(states) for job, states in histories.items()}
        self.baseline = baseline
        self.smpc_baseline = smpc_baseline
        self.privacy_baseline = dict(privacy_baseline)
        self.oracles = dict(oracles or {})
        self.revived_workers = set(revived_workers)

    def check(self) -> InvariantReport:
        report = InvariantReport()
        self._check_conservation(report)
        self._check_meter_hygiene(report)
        self._check_lifecycle(report)
        self._check_audit_completeness(report)
        self._check_equivalence(report)
        self._check_privacy_monotonicity(report)
        return report

    # ------------------------------------------------- telemetry conservation

    def _check_conservation(self, report: InvariantReport) -> None:
        end = self.federation.transport.snapshot()
        per_job_messages = sum(r.telemetry.messages for r in self.results)
        per_job_bytes = sum(r.telemetry.bytes_sent for r in self.results)
        per_job_seconds = sum(
            r.telemetry.simulated_network_seconds for r in self.results
        )
        problems = []
        global_messages = end.messages - self.baseline.messages
        if per_job_messages != global_messages:
            problems.append(
                f"messages: jobs={per_job_messages} global={global_messages}"
            )
        global_bytes = end.bytes_sent - self.baseline.bytes_sent
        if per_job_bytes != global_bytes:
            problems.append(f"bytes: jobs={per_job_bytes} global={global_bytes}")
        global_seconds = end.simulated_seconds - self.baseline.simulated_seconds
        if not math.isclose(
            per_job_seconds, global_seconds, rel_tol=1e-9, abs_tol=1e-9
        ):
            problems.append(
                f"seconds: jobs={per_job_seconds!r} global={global_seconds!r}"
            )
        cluster = self.federation.smpc_cluster
        if cluster is not None:
            rounds0, elements0 = self.smpc_baseline
            global_rounds = cluster.communication.rounds - rounds0
            global_elements = cluster.communication.elements - elements0
            job_rounds = sum(r.telemetry.smpc_rounds for r in self.results)
            job_elements = sum(r.telemetry.smpc_elements for r in self.results)
            if job_rounds != global_rounds:
                problems.append(
                    f"smpc rounds: jobs={job_rounds} global={global_rounds}"
                )
            if job_elements != global_elements:
                problems.append(
                    f"smpc elements: jobs={job_elements} global={global_elements}"
                )
        report.record(
            "telemetry-conservation", not problems, "; ".join(sorted(problems))
        )

    # ------------------------------------------------------------ meter leaks

    def _check_meter_hygiene(self, report: InvariantReport) -> None:
        transport = self.federation.transport
        with transport._stats_lock:
            orphaned = sorted(transport._job_stats)
        problems = [f"transport meter {job}" for job in orphaned]
        cluster = self.federation.smpc_cluster
        if cluster is not None:
            with cluster._lock:
                problems.extend(f"smpc meter {job}" for job in sorted(cluster._job_meters))
        report.record("meter-hygiene", not problems, "; ".join(problems))

    # ----------------------------------------------------------- job states

    _LEGAL_HISTORIES = frozenset(
        {
            ("pending", "queued", "cancelled"),
            ("pending", "queued", "running", "success"),
            ("pending", "queued", "running", "error"),
            ("pending", "queued", "running", "cancelled"),
        }
    )

    def _check_lifecycle(self, report: InvariantReport) -> None:
        problems = []
        for job_id in sorted(self.histories):
            history = self.histories[job_id]
            if history not in self._LEGAL_HISTORIES:
                problems.append(f"{job_id}: {'>'.join(history)}")
        report.record("job-lifecycle", not problems, "; ".join(problems))

    # ------------------------------------------------------------- audit laws

    def _check_audit_completeness(self, report: InvariantReport) -> None:
        problems = []
        logs = self.federation.audit_logs()
        for result in self.results:
            job_id = result.experiment_id
            events = merged_events(logs, job_id=job_id)
            names = [e["event"] for e in events]
            pre_dispatch = self.histories.get(job_id, ()) == (
                "pending",
                "queued",
                "cancelled",
            )
            if pre_dispatch:
                if "experiment_cancelled" not in names:
                    problems.append(f"{job_id}: pre-dispatch cancel not audited")
                continue
            if "experiment_started" not in names:
                problems.append(f"{job_id}: missing experiment_started")
            if "experiment_finished" not in names:
                problems.append(f"{job_id}: missing experiment_finished")
            self._check_secure_aggregates(job_id, events, problems)
            self._check_evictions(result, events, problems)
        report.record("audit-completeness", not problems, "; ".join(problems))

    def _check_secure_aggregates(
        self, job_id: str, events: list[dict], problems: list[str]
    ) -> None:
        """Every secure aggregate must be fed by per-worker share events.

        A worker's ``aggregate_shared(path=smpc)`` event carries the step id
        of the step that *created* the secure table, not of the read that
        aggregates it, so the law is precedence and count, not step-id
        equality: walking the merged log in order, each ``secure_aggregate``
        consumes one prior unconsumed share event per contributing worker.
        """
        available: dict[str, int] = {}
        for event in events:
            if (
                event["event"] == "aggregate_shared"
                and event["details"].get("path") == "smpc"
            ):
                available[event["node"]] = available.get(event["node"], 0) + 1
            elif event["event"] == "secure_aggregate":
                step = event["job_id"]
                missing = []
                for worker in sorted(event["details"].get("workers", ())):
                    if available.get(worker, 0) > 0:
                        available[worker] -= 1
                    else:
                        missing.append(worker)
                if missing:
                    problems.append(
                        f"{step}: secure aggregate without shares from "
                        f"{','.join(missing)}"
                    )

    def _check_evictions(
        self, result, events: list[dict], problems: list[str]
    ) -> None:
        """Result evictions and audited evictions must match one-to-one, and
        an evicted worker must not contribute after its eviction step."""
        job_id = result.experiment_id
        audited: dict[str, int] = {}
        for event in events:
            if event["event"] != "worker_evicted":
                continue
            step = _step_number(event["job_id"], job_id)
            for worker in event["details"].get("workers", ()):
                audited.setdefault(worker, step if step is not None else -1)
        result_evicted = set(getattr(result, "evicted", ()))
        for worker in sorted(result_evicted - set(audited)):
            problems.append(f"{job_id}: eviction of {worker} not audited")
        for worker in sorted(set(audited) - result_evicted):
            problems.append(f"{job_id}: audited eviction of {worker} not in result")
        for event in events:
            if event["event"] not in ("aggregate_shared", "dataset_read", "rows_contributed"):
                continue
            worker = event["node"]
            if worker not in audited:
                continue
            step = _step_number(event["job_id"], job_id)
            if step is not None and audited[worker] >= 0 and step > audited[worker]:
                problems.append(
                    f"{job_id}: {worker} contributed at step {step} after "
                    f"eviction at step {audited[worker]}"
                )

    # --------------------------------------------------- plain/secure oracle

    def _check_equivalence(self, report: InvariantReport) -> None:
        problems = []
        checked = 0
        for result in self.results:
            if result.status.value != "success" or getattr(result, "evicted", ()):
                continue
            oracle = self.oracles.get(result.experiment_id)
            if oracle is None:
                continue
            checked += 1
            mismatch = _first_mismatch(result.result, oracle)
            if mismatch:
                problems.append(f"{result.experiment_id}: {mismatch}")
        detail = "; ".join(problems) if problems else f"checked={checked}"
        report.record("smpc-plain-equivalence", not problems, detail)

    # ------------------------------------------------------------ privacy law

    def _check_privacy_monotonicity(self, report: InvariantReport) -> None:
        problems = []
        logs = self.federation.audit_logs()
        for result in self.results:
            last = 0.0
            for event in merged_events(
                logs, job_id=result.experiment_id, event="privacy_spend"
            ):
                total = float(event["details"].get("total_epsilon", 0.0))
                if total + 1e-12 < last:
                    problems.append(
                        f"{result.experiment_id}: total_epsilon fell "
                        f"{last!r} -> {total!r}"
                    )
                last = total
        snapshot = self.federation.metrics_registry().snapshot()
        for name, start in sorted(self.privacy_baseline.items()):
            if name.startswith("repro_privacy_") and snapshot[name] + 1e-12 < start:
                problems.append(f"{name} fell {start!r} -> {snapshot[name]!r}")
        report.record("privacy-monotonicity", not problems, "; ".join(problems))


def _step_number(step_id: str | None, job_id: str) -> int | None:
    """The numeric step index of ``{job_id}_s{n}...``-shaped step ids."""
    if not step_id or not step_id.startswith(f"{job_id}_s"):
        return None
    digits = ""
    for char in step_id[len(job_id) + 2 :]:
        if char.isdigit():
            digits += char
        else:
            break
    return int(digits) if digits else None


def _first_mismatch(secure: Any, plain: Any, path: str = "") -> str | None:
    """Recursive approximate comparison; returns a description or None."""
    where = path or "result"
    if isinstance(secure, Mapping) and isinstance(plain, Mapping):
        if sorted(secure) != sorted(plain):
            return f"{where}: keys differ"
        for key in sorted(secure):
            found = _first_mismatch(secure[key], plain[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(secure, (list, tuple)) and isinstance(plain, (list, tuple)):
        if len(secure) != len(plain):
            return f"{where}: length {len(secure)} != {len(plain)}"
        for index, (a, b) in enumerate(zip(secure, plain)):
            found = _first_mismatch(a, b, f"{where}[{index}]")
            if found:
                return found
        return None
    if isinstance(secure, (int, float)) and isinstance(plain, (int, float)):
        a, b = float(secure), float(plain)
        if math.isnan(a) and math.isnan(b):
            return None
        if not math.isclose(
            a, b, rel_tol=EQUIVALENCE_REL_TOL, abs_tol=EQUIVALENCE_ABS_TOL
        ):
            return f"{where}: {a!r} != {b!r}"
        return None
    if secure != plain:
        return f"{where}: {secure!r} != {plain!r}"
    return None
