"""Crash recovery: fold the journal into results and resume frontiers.

The :class:`DurabilityManager` is the one object the engine talks to.  It
owns the journal and plays two roles:

**Recording (normal operation).**  The :class:`~repro.core.jobs.ExperimentQueue`
journals every lifecycle transition — ``submit`` (with the full serialized
request, so the journal is self-contained), ``dispatch``, and a fsync'd
``terminal`` carrying the serialized result.  The execution context calls
:meth:`record_read` every time an algorithm pulls a value out of the
federation; each read appends a fsync'd ``step`` record carrying the
value, its plan-node key and its index in the job's read order.

**Recovery (startup).**  :meth:`recover` folds the journal into a job
table: a job with a ``terminal`` record is finished (its result is
restored into the history store); a job without one is re-enqueued in its
original submission order and priority, together with its read frontier —
the values its ``step`` records carry.  :meth:`prepare_resume` reports how
many reads a job will replay, and the runner takes them with
:meth:`take_resume_reads` to replay the recorded frontier through ghost
plan nodes instead of re-executing from step 0.

Once :attr:`DurabilityManager.frozen` is set — a simulated master crash
sets it — all recording becomes a no-op: a dead process writes nothing,
and the simulated crash must leave exactly the bytes that were durable at
the crash point.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.experiment import ExperimentRequest, ExperimentResult
from repro.durability.journal import Journal


@dataclass
class RecoveryReport:
    """What one startup replay found."""

    #: Finished jobs restored into the history store (id → result).
    completed: dict[str, ExperimentResult] = field(default_factory=dict)
    #: Non-terminal jobs to re-enqueue, in original submission order.
    pending: list[tuple[str, ExperimentRequest, int]] = field(default_factory=list)
    #: Journal records referencing a job with no (surviving) submit record —
    #: e.g. pruned by torn-tail truncation.
    orphan_records: int = 0
    #: Records whose payload no longer deserializes (skipped, not fatal).
    undecodable_records: int = 0
    journal: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "restored": sorted(self.completed),
            "resumed": [job_id for job_id, _, _ in self.pending],
            "orphan_records": self.orphan_records,
            "undecodable_records": self.undecodable_records,
            "journal": dict(self.journal),
        }


#: A terminal record whose result does not decode: the job is neither
#: restored nor re-run.
_UNDECODABLE = object()


class DurabilityManager:
    """Journal + recovery for one ``state_dir``."""

    def __init__(
        self,
        state_dir: str,
        fsync_every: int = 8,
        segment_max_bytes: int = 1 << 20,
    ) -> None:
        import os

        self.state_dir = state_dir
        self.journal = Journal(
            os.path.join(state_dir, "journal"),
            fsync_every=fsync_every,
            segment_max_bytes=segment_max_bytes,
        )
        self._lock = threading.Lock()
        #: Index of each recording job's next read; set at submit, dropped
        #: at terminal or when a read does not serialize.
        self._read_counts: dict[str, int] = {}
        self._resume_reads: dict[str, list[dict[str, Any]]] = {}
        self.resumed_jobs: tuple[str, ...] = ()
        self.restored_jobs: tuple[str, ...] = ()
        self.unserializable_reads = 0
        #: Set once a simulated master crash fires: the "process" is dead,
        #: so nothing may reach stable storage anymore.
        self.frozen = False

    # ----------------------------------------------------------- recording

    def record_submit(self, job_id: str, request: ExperimentRequest, priority: int) -> None:
        if self.frozen:
            return
        with self._lock:
            self._read_counts[job_id] = 0
        self.journal.append(
            "submit",
            {"job_id": job_id, "request": request.to_dict(), "priority": priority},
            sync=True,
        )

    def record_dispatch(self, job_id: str) -> None:
        if self.frozen:
            return
        self.journal.append("dispatch", {"job_id": job_id})

    def record_terminal(self, job_id: str, result: ExperimentResult) -> None:
        """A job reached success/error/cancelled: fsync the result, which
        also retires the job's read frontier."""
        if self.frozen:
            return
        self.journal.append(
            "terminal",
            {"job_id": job_id, "status": result.status.value, "result": result.to_dict()},
            sync=True,
        )
        with self._lock:
            self._read_counts.pop(job_id, None)

    def record_read(self, job_id: str, key: str, value: Any) -> None:
        """One value left the federation: extend the job's frontier.

        Appends a fsync'd ``step`` record with the value, so the read is
        durable before the flow acts on it.  A value that does not
        JSON-serialize stops recording for the job (counted) rather than
        failing the experiment; the reads before it still resume.
        """
        if self.frozen:
            return
        with self._lock:
            index = self._read_counts.get(job_id)
            if index is None:
                return
            self._read_counts[job_id] = index + 1
        try:
            self.journal.append(
                "step",
                {"job_id": job_id, "index": index, "key": key, "value": value},
                sync=True,
            )
        except (TypeError, ValueError):
            self.unserializable_reads += 1
            with self._lock:
                self._read_counts.pop(job_id, None)

    # ------------------------------------------------------------ recovery

    def recover(self) -> RecoveryReport:
        """Fold the journal into finished results + jobs to re-enqueue.

        A job's read frontier is folded the way its ``step`` records were
        written: a step at ``index`` replaces the reads from ``index`` on
        (a resumed life re-records its replay over the previous life's
        frontier), a step that skips ahead is ignored, and a ``terminal``
        record — or a re-submit of a different request — clears the reads.
        Only pending jobs keep theirs, for :meth:`take_resume_reads`.
        """
        report = RecoveryReport()
        jobs: dict[str, dict[str, Any]] = {}
        order: list[str] = []
        for record in self.journal.records():
            kind = record.get("kind")
            job_id = record.get("job_id")
            if not isinstance(job_id, str):
                report.undecodable_records += 1
                continue
            if kind == "submit":
                try:
                    request = ExperimentRequest.from_dict(record["request"])
                except (KeyError, TypeError, ValueError):
                    report.undecodable_records += 1
                    continue
                entry = jobs.get(job_id)
                if entry is None:
                    order.append(job_id)
                    jobs[job_id] = {
                        "request": request,
                        "priority": int(record.get("priority", 0)),
                        "terminal": None,
                        "reads": [],
                    }
                else:
                    # Re-submission after a restart: newest request wins and
                    # any stale terminal state is cleared.  A frontier read
                    # for another request must not replay.
                    if request != entry["request"]:
                        entry["reads"] = []
                    entry.update(request=request, terminal=None)
                continue
            entry = jobs.get(job_id)
            if entry is None:
                # The journal references a job whose submit record was lost
                # (pruned by truncation).  Nothing to recover for it.
                report.orphan_records += 1
                continue
            if kind == "step":
                reads = entry["reads"]
                index = record.get("index")
                if isinstance(index, int) and 0 <= index <= len(reads) and "value" in record:
                    reads[index:] = [{"key": record.get("key"), "value": record["value"]}]
            elif kind == "terminal":
                entry["reads"] = []
                # Decoded while reading: held raw until the journal is read
                # through, every payload would sit beside its result.
                payload = record.get("result")
                try:
                    entry["terminal"] = (
                        None if payload is None else ExperimentResult.from_dict(payload)
                    )
                except (KeyError, TypeError, ValueError):
                    entry["terminal"] = _UNDECODABLE
            # "dispatch" records carry no recovery state.
        for job_id in order:
            entry = jobs[job_id]
            terminal = entry["terminal"]
            if terminal is _UNDECODABLE:
                report.undecodable_records += 1
            elif terminal is not None:
                report.completed[job_id] = terminal
            else:
                report.pending.append((job_id, entry["request"], entry["priority"]))
                if entry["reads"]:
                    self._resume_reads[job_id] = entry["reads"]
        report.journal = self.journal.stats.to_dict()
        self.restored_jobs = tuple(sorted(report.completed))
        self.resumed_jobs = tuple(job_id for job_id, _, _ in report.pending)
        return report

    def prepare_resume(self, job_id: str) -> int:
        """How many recorded reads the job's resume will replay (0 = none,
        run live)."""
        with self._lock:
            return len(self._resume_reads.get(job_id, ()))

    def take_resume_reads(self, job_id: str) -> list[dict[str, Any]] | None:
        """Hand the recorded frontier to the runner (consumed once)."""
        with self._lock:
            return self._resume_reads.pop(job_id, None)

    # ------------------------------------------------------- observability

    def stats(self) -> dict[str, Any]:
        return {
            "journal": self.journal.stats.to_dict(),
            "resumed_jobs": len(self.resumed_jobs),
            "restored_jobs": len(self.restored_jobs),
            "unserializable_reads": self.unserializable_reads,
        }

    def metrics_samples(self) -> Iterator[tuple[str, dict[str, str], float]]:
        journal = self.journal.stats
        yield ("repro_journal_appends_total", {}, float(journal.appends_total))
        yield ("repro_journal_fsyncs_total", {}, float(journal.fsyncs_total))
        yield (
            "repro_journal_bytes_appended_total",
            {},
            float(journal.bytes_appended_total),
        )
        yield ("repro_journal_rotations_total", {}, float(journal.rotations_total))
        yield (
            "repro_journal_recovered_records",
            {},
            float(journal.recovered_records),
        )
        yield ("repro_journal_dropped_bytes", {}, float(journal.dropped_bytes))
        yield ("repro_recovery_resumed_jobs", {}, float(len(self.resumed_jobs)))
        yield ("repro_recovery_restored_jobs", {}, float(len(self.restored_jobs)))

    def close(self) -> None:
        self.journal.close()
