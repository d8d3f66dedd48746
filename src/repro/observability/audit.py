"""Append-only privacy audit log for masters and workers.

Federated medical platforms must answer, per experiment: which datasets and
variables were read, how many rows each hospital contributed, which
aggregates left each worker, how much privacy budget was spent, and which
workers were evicted mid-flow.  Every node (the master and each worker)
owns one :class:`AuditLog`; events are structured, monotonically sequenced,
and never mutated or removed.

Event vocabulary (the ``event`` field):

- ``dataset_read`` — a worker compiled a data view (datasets, variables,
  row count) for a local step,
- ``rows_contributed`` — rows entering a local computation after the
  privacy-threshold check,
- ``aggregate_shared`` — a transfer/secure-transfer left a worker (and to
  whom: master or SMPC cluster),
- ``transfer_received`` — a global transfer was placed on a worker (a
  ``share_to_locals=True`` global step; parameters a flow passes as step
  literals leave no event),
- ``secure_aggregate`` — the SMPC cluster combined a job's shares,
- ``privacy_spend`` — one (epsilon, delta) release from
  :class:`repro.privacy.accountant.PrivacyAccountant`,
- ``worker_evicted`` — the flow dropped a worker (degrade path),
- ``experiment_started`` / ``experiment_finished`` — flow lifecycle.

Step job ids are prefixed by their experiment id, so
``log.events(job_id=<experiment_id>)`` returns everything an experiment
touched (:func:`owned_by`).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence


def owned_by(job_id: str, experiment_id: str) -> bool:
    """Whether ``job_id`` is the experiment or one of its steps.

    Every step, read and gather id is ``{experiment}_...``.  This is the one
    statement of that rule — worker and master cleanup, the SMPC cluster's
    job release and the audit query all use it — because a looser match
    makes finishing ``e1`` drop the tables of ``e10``.
    """
    return job_id == experiment_id or job_id.startswith(f"{experiment_id}_")


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """One immutable audit record."""

    seq: int
    wall_time: float
    node: str
    event: str
    job_id: str | None
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "wall_time": self.wall_time,
            "node": self.node,
            "event": self.event,
            "job_id": self.job_id,
            "details": dict(self.details),
        }


class AuditLog:
    """Thread-safe, append-only event log owned by one node."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._lock = threading.Lock()
        self._events: list[AuditEvent] = []

    def record(self, event: str, job_id: str | None = None, **details: Any) -> AuditEvent:
        with self._lock:
            entry = AuditEvent(
                seq=len(self._events),
                wall_time=time.time(),
                node=self.node,
                event=event,
                job_id=job_id,
                details=details,
            )
            self._events.append(entry)
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(
        self,
        job_id: str | None = None,
        event: str | None = None,
        since: int = 0,
    ) -> list[AuditEvent]:
        """Query the log; ``job_id`` prefix-matches step ids of an experiment.

        ``since`` is a log length noted earlier: only events recorded after
        that point are read (the log is append-only, so they are the tail).
        """
        with self._lock:
            entries = self._events[since:]
        if event is not None:
            entries = [e for e in entries if e.event == event]
        if job_id is not None:
            entries = [
                e
                for e in entries
                if e.job_id is not None and owned_by(e.job_id, job_id)
            ]
        return entries


class AuditTrail(Sequence):
    """One experiment's audit trail across nodes, in (time, node, seq) order.

    Reads like a tuple of event dicts, but holds the nodes' own (immutable)
    :class:`AuditEvent` records and copies one out per access — every
    finished experiment keeps its trail, and a second full copy of every
    event was two fifths of what an experiment retained.

    ``since`` gives, per log, the length noted before the experiment's first
    event: the trail then reads each log's tail, not its whole history.
    """

    __slots__ = ("_events",)

    def __init__(
        self,
        logs: Iterable[AuditLog],
        job_id: str | None = None,
        event: str | None = None,
        since: Iterable[int] | None = None,
    ) -> None:
        entries: list[AuditEvent] = []
        for log, start in zip(logs, itertools.repeat(0) if since is None else since):
            entries.extend(log.events(job_id=job_id, event=event, since=start))
        entries.sort(key=lambda e: (e.wall_time, e.node, e.seq))
        self._events = tuple(entries)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(entry.to_dict() for entry in self._events[index])
        return self._events[index].to_dict()

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return (entry.to_dict() for entry in self._events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AuditTrail):
            return self._events == other._events
        if isinstance(other, (tuple, list)):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented


def merged_events(
    logs: Iterable[AuditLog],
    job_id: str | None = None,
    event: str | None = None,
) -> list[dict[str, Any]]:
    """One experiment's audit trail across nodes, as a list of event dicts."""
    return list(AuditTrail(logs, job_id=job_id, event=event))
