"""Read-frontier experiment checkpoints, written atomically.

A checkpoint is a schema-versioned JSON snapshot keyed by the flow-plan IR:

- ``fingerprint`` — the canonical fingerprint of the
  :class:`~repro.core.experiment.ExperimentRequest` that produced the flow.
  A resumed run whose fingerprint differs discards the checkpoint and runs
  live from step 0 — resuming a different plan over a recorded frontier
  would silently corrupt results.
- ``reads`` — the completed-step frontier: every value the algorithm has
  already pulled out of the federation (aggregate opens and barriers), in
  program order, each tagged with the plan node key that produced it.
  Replaying it re-runs the flow's own code, so everything the flow derives
  between reads (coefficients, training history, privacy spend) is rebuilt
  rather than stored.

Snapshots are written with the classic tmp+rename dance so a crash during
a save leaves either the previous snapshot or the new one, never a torn
file.  Loads are forgiving: a missing file, bad JSON, or a schema-version
mismatch all return ``None`` (run live) rather than raising.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.plan import canonical_fingerprint

CHECKPOINT_SCHEMA_VERSION = 1


def request_fingerprint(payload: Mapping[str, Any]) -> str:
    """Canonical fingerprint of a JSON-ready request mapping."""
    return canonical_fingerprint(dict(payload))


@dataclass
class ExperimentCheckpoint:
    """One experiment's resumable frontier."""

    job_id: str
    fingerprint: str
    reads: list[dict[str, Any]] = field(default_factory=list)
    schema: int = CHECKPOINT_SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "reads": self.reads,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentCheckpoint":
        return cls(
            job_id=str(payload["job_id"]),
            fingerprint=str(payload["fingerprint"]),
            reads=list(payload.get("reads", ())),
            schema=int(payload.get("schema", -1)),
        )


@dataclass
class CheckpointStats:
    saves_total: int = 0
    loads_total: int = 0
    load_failures_total: int = 0
    deletes_total: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class CheckpointStore:
    """Atomic one-file-per-job checkpoint storage under ``<directory>/``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.stats = CheckpointStats()
        os.makedirs(directory, exist_ok=True)

    def _path(self, job_id: str) -> str:
        # Job ids are slug-like ("sim_job_1", "exp_3f2a…"); guard anyway so a
        # hostile id cannot escape the store directory.
        safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in job_id)
        return os.path.join(self.directory, f"{safe}.ckpt.json")

    def save(self, checkpoint: ExperimentCheckpoint) -> None:
        path = self._path(checkpoint.job_id)
        tmp = path + ".tmp"
        body = json.dumps(checkpoint.to_dict(), sort_keys=True, separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.stats.saves_total += 1

    def load(self, job_id: str) -> ExperimentCheckpoint | None:
        self.stats.loads_total += 1
        path = self._path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            checkpoint = ExperimentCheckpoint.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError):
            if os.path.exists(path):
                self.stats.load_failures_total += 1
            return None
        if checkpoint.schema != CHECKPOINT_SCHEMA_VERSION:
            self.stats.load_failures_total += 1
            return None
        return checkpoint

    def delete(self, job_id: str) -> bool:
        try:
            os.unlink(self._path(job_id))
        except FileNotFoundError:
            return False
        self.stats.deletes_total += 1
        return True

    def list_ids(self) -> list[str]:
        ids = []
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(".ckpt.json"):
                ids.append(name[: -len(".ckpt.json")])
        return ids
