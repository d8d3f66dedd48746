"""Durable execution: write-ahead journal, checkpoints, crash recovery.

A zero-dependency persistence layer for the federation master.  Three
collaborators, mirroring the classic database recovery split:

- :mod:`repro.durability.journal` — an append-only, CRC-framed JSONL
  write-ahead log of job lifecycle transitions with fsync batching,
  segment rotation and torn-tail truncation on open.
- :mod:`repro.durability.checkpoint` — atomic (tmp+rename), schema-versioned
  snapshots of an experiment's progress: the plan fingerprint, the
  completed-read frontier, and serialized global state (e.g. model
  coefficients between training rounds).
- :mod:`repro.durability.recovery` — replays the journal over the latest
  snapshots on ``MIPService(state_dir=...)`` startup, restores finished
  results, re-enqueues non-terminal jobs, and hands each resumed job its
  recorded read log so the :class:`~repro.core.plan_executor.PlanExecutor`
  replays from the checkpoint frontier instead of step 0.

What is deliberately NOT durable: worker-side tables (recomputed on
resume), the UDF plan cache, metrics, and trace buffers.  See
docs/ARCHITECTURE.md §15.
"""

from repro.durability.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    ExperimentCheckpoint,
)
from repro.durability.journal import Journal
from repro.durability.recovery import DurabilityManager, RecoveryReport

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointStore",
    "DurabilityManager",
    "ExperimentCheckpoint",
    "Journal",
    "RecoveryReport",
]
