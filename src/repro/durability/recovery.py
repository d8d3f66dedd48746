"""Crash recovery: replay the journal over the latest snapshots.

The :class:`DurabilityManager` is the one object the engine talks to.  It
owns the journal and the checkpoint store and plays two roles:

**Recording (normal operation).**  The :class:`~repro.core.jobs.ExperimentQueue`
journals every lifecycle transition — ``submit`` (with the full serialized
request, so the journal is self-contained), ``dispatch``, and a fsync'd
``terminal`` carrying the serialized result.  The execution context calls
:meth:`record_read` every time an algorithm pulls a value out of the
federation; each read appends a ``step`` journal record and atomically
rewrites the job's checkpoint with the full read log, which *is* the
completed-step frontier.

**Recovery (startup).**  :meth:`recover` folds the journal into a job
table: a job with a ``terminal`` record is finished (its result is
restored into the history store); a job without one is re-enqueued in its
original submission order and priority.  :meth:`prepare_resume` then loads
the job's checkpoint — if its plan fingerprint still matches the request —
and stashes the read log for the runner, which replays the recorded
frontier through ghost plan nodes instead of re-executing from step 0.

Under an active simulation with a crashed master, all recording becomes a
no-op: a dead process writes nothing, and the simulated crash must leave
exactly the bytes that were durable at the crash point.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.experiment import ExperimentRequest, ExperimentResult
from repro.durability.checkpoint import (
    CheckpointStore,
    ExperimentCheckpoint,
    request_fingerprint,
)
from repro.durability.journal import Journal
from repro.simtest import hooks as sim_hooks


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
    """Journal + checkpoints + recovery for one ``state_dir``."""

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
        self.checkpoints = CheckpointStore(os.path.join(state_dir, "checkpoints"))
        self._lock = threading.Lock()
        self._read_logs: dict[str, list[dict[str, Any]]] = {}
        self._fingerprints: dict[str, str] = {}
        self._resume_reads: dict[str, list[dict[str, Any]]] = {}
        self.resumed_jobs: tuple[str, ...] = ()
        self.restored_jobs: tuple[str, ...] = ()
        self.checkpoint_mismatches = 0
        self.unserializable_reads = 0

    # ------------------------------------------------------------ freezing

    @staticmethod
    def _frozen() -> bool:
        """True once a simulated master crash has fired: the "process" is
        dead, so nothing may reach stable storage anymore."""
        sim = sim_hooks.current()
        return sim is not None and getattr(sim, "master_crashed", False)

    # ----------------------------------------------------------- recording

    def record_submit(self, job_id: str, request: ExperimentRequest, priority: int) -> None:
        if self._frozen():
            return
        payload = request.to_dict()
        with self._lock:
            self._fingerprints[job_id] = request_fingerprint(payload)
        self.journal.append(
            "submit",
            {"job_id": job_id, "request": payload, "priority": priority},
            sync=True,
        )

    def record_dispatch(self, job_id: str) -> None:
        if self._frozen():
            return
        self.journal.append("dispatch", {"job_id": job_id})

    def record_terminal(self, job_id: str, result: ExperimentResult) -> None:
        """A job reached success/error/cancelled: fsync the result, then
        drop its checkpoint — the frontier is no longer needed."""
        if self._frozen():
            return
        self.journal.append(
            "terminal",
            {"job_id": job_id, "status": result.status.value, "result": result.to_dict()},
            sync=True,
        )
        self.checkpoints.delete(job_id)
        with self._lock:
            self._read_logs.pop(job_id, None)
            self._fingerprints.pop(job_id, None)

    def record_read(self, job_id: str, key: str, value: Any) -> None:
        """One value left the federation: extend the job's frontier.

        Journals a ``step`` marker and atomically rewrites the checkpoint
        with the complete read log so far.  A value that does not
        JSON-serialize disables checkpointing for the job (counted) rather
        than failing the experiment.
        """
        if self._frozen():
            return
        with self._lock:
            fingerprint = self._fingerprints.get(job_id)
            log = self._read_logs.setdefault(job_id, [])
            entry = {"key": key, "value": value}
            log.append(entry)
            snapshot = list(log)
        if fingerprint is None:
            return
        try:
            self.journal.append(
                "step", {"job_id": job_id, "index": len(snapshot) - 1, "key": key}
            )
            self.checkpoints.save(
                ExperimentCheckpoint(
                    job_id=job_id, fingerprint=fingerprint, reads=snapshot
                )
            )
        except (TypeError, ValueError):
            self.unserializable_reads += 1
            with self._lock:
                self._read_logs.pop(job_id, None)
                self._fingerprints.pop(job_id, None)
            self.checkpoints.delete(job_id)

    # ------------------------------------------------------------ recovery

    def recover(self) -> RecoveryReport:
        """Fold the journal into finished results + jobs to re-enqueue."""
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
                    }
                else:
                    # Re-submission after a restart: newest request wins and
                    # any stale terminal state is cleared.
                    entry.update(request=request, terminal=None)
                continue
            entry = jobs.get(job_id)
            if entry is None:
                # The journal references a job whose submit record was lost
                # (pruned by truncation).  Nothing to recover for it.
                report.orphan_records += 1
                continue
            if kind == "terminal":
                # Decoded while reading: held raw until the journal is read
                # through, every payload would sit beside its result.
                payload = record.get("result")
                try:
                    entry["terminal"] = (
                        None if payload is None else ExperimentResult.from_dict(payload)
                    )
                except (KeyError, TypeError, ValueError):
                    entry["terminal"] = _UNDECODABLE
            # "dispatch" and "step" records carry no recovery state beyond
            # what the checkpoint already holds.
        for job_id in order:
            entry = jobs[job_id]
            terminal = entry["terminal"]
            if terminal is _UNDECODABLE:
                report.undecodable_records += 1
            elif terminal is not None:
                report.completed[job_id] = terminal
            else:
                report.pending.append((job_id, entry["request"], entry["priority"]))
        report.journal = self.journal.stats.to_dict()
        self.restored_jobs = tuple(sorted(report.completed))
        self.resumed_jobs = tuple(job_id for job_id, _, _ in report.pending)
        # GC: a crash between the terminal journal append and the checkpoint
        # delete leaves a stale frontier behind — drop it for every job the
        # journal says is finished.
        for job_id in self.restored_jobs:
            self.checkpoints.delete(job_id)
        return report

    def prepare_resume(self, job_id: str, request: ExperimentRequest) -> int:
        """Load the job's checkpoint frontier; returns how many recorded
        reads will replay (0 = no usable checkpoint, run live)."""
        checkpoint = self.checkpoints.load(job_id)
        if checkpoint is None:
            return 0
        if checkpoint.fingerprint != request_fingerprint(request.to_dict()):
            self.checkpoint_mismatches += 1
            self.checkpoints.delete(job_id)
            return 0
        with self._lock:
            self._resume_reads[job_id] = list(checkpoint.reads)
        return len(checkpoint.reads)

    def take_resume_reads(self, job_id: str) -> list[dict[str, Any]] | None:
        """Hand the recorded frontier to the runner (consumed once)."""
        with self._lock:
            return self._resume_reads.pop(job_id, None)

    # ------------------------------------------------------- observability

    def stats(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "journal": self.journal.stats.to_dict(),
            "checkpoints": self.checkpoints.stats.to_dict(),
            "resumed_jobs": len(self.resumed_jobs),
            "restored_jobs": len(self.restored_jobs),
            "checkpoint_mismatches": self.checkpoint_mismatches,
            "unserializable_reads": self.unserializable_reads,
        }
        return payload

    def metrics_samples(self) -> Iterator[tuple[str, dict[str, str], float]]:
        journal = self.journal.stats
        checkpoints = self.checkpoints.stats
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
        yield ("repro_checkpoint_saves_total", {}, float(checkpoints.saves_total))
        yield ("repro_checkpoint_loads_total", {}, float(checkpoints.loads_total))
        yield (
            "repro_checkpoint_load_failures_total",
            {},
            float(checkpoints.load_failures_total),
        )
        yield ("repro_recovery_resumed_jobs", {}, float(len(self.resumed_jobs)))
        yield ("repro_recovery_restored_jobs", {}, float(len(self.restored_jobs)))

    def close(self) -> None:
        self.journal.close()
