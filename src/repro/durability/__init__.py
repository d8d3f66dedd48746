"""Durable execution: write-ahead journal and crash recovery.

A zero-dependency persistence layer for the federation master.  One
durable log and the fold that reads it back:

- :mod:`repro.durability.journal` — an append-only, CRC-framed JSONL
  write-ahead log of job lifecycle transitions and of every value a job
  read out of the federation, with fsync batching, segment rotation and
  torn-tail truncation on open.
- :mod:`repro.durability.recovery` — folds the journal on
  ``MIPService(state_dir=...)`` startup, restores finished results,
  re-enqueues non-terminal jobs, and hands each resumed job the read values
  its ``step`` records carry, so the
  :class:`~repro.core.plan_executor.PlanExecutor` replays that frontier
  instead of starting from step 0.

What is deliberately NOT durable: worker-side tables (recomputed on
resume), the UDF plan cache, metrics, and trace buffers.  See
docs/ARCHITECTURE.md §15.
"""

from repro.durability.journal import Journal
from repro.durability.recovery import DurabilityManager, RecoveryReport

__all__ = [
    "DurabilityManager",
    "Journal",
    "RecoveryReport",
]
