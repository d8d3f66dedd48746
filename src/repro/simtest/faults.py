"""The composable fault-plan DSL.

A :class:`FaultPlan` is an ordered set of one-shot faults, each keyed to a
deterministic counter of the simulation, so the same plan under the same
seed always strikes the same logical instant:

- message faults fire on the global *delivery* counter (every attempted
  delivery in ``Transport._send_one``, in deterministic order because the
  scheduler serializes all sends):

  ``drop@12`` / ``drop@12:hospital_a``
      delivery 12 (to ``hospital_a``, if named) is lost in flight and raises
      :class:`~repro.errors.NodeUnavailableError`, exercising the retry /
      eviction machinery exactly like a drop-probability loss.
  ``delay@7=0.05`` / ``delay@7:hospital_a=0.05``
      delivery 7 costs 0.05 extra simulated seconds.
  ``crash@9:hospital_b``
      the named worker goes down right before delivery 9.
  ``revive@30:hospital_b``
      the named worker comes back right before delivery 30.
  ``reorder@3``
      the first fan-out group at/after delivery 3 dispatches in reversed
      (post-permutation) order.

- cancellation faults fire on the global *flow-step* counter (every
  checkpoint a running experiment passes):

  ``cancel@5:job2``
      cancel the experiment aliased ``job2`` when the step counter reaches
      5; ``cancel@0:job2`` cancels before dispatch (right after submit).

  ``crash@5:master``
      the *master process* dies when the flow-step counter reaches 5 —
      every in-flight experiment unwinds with
      :class:`~repro.errors.MasterCrashError`, nothing further is
      journaled, and the harness restarts the service from its
      ``state_dir`` to exercise recovery.  A ``crash`` fault whose target
      is ``master`` is the one crash keyed to the step counter (worker
      crashes stay on the delivery counter).

Faults are comma-joined into a spec string (``drop@3,crash@9:hospital_b``)
that round-trips through :meth:`FaultPlan.parse` / :meth:`FaultPlan.spec`,
so a failing fuzz case prints as one flag value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import SimTestError

#: Fault kinds keyed to the delivery counter.
DELIVERY_KINDS = ("drop", "delay", "crash", "revive", "reorder")
#: Fault kinds keyed to the flow-step counter.
STEP_KINDS = ("cancel",)
#: The special ``crash`` target that kills the master instead of a worker.
MASTER_TARGET = "master"

_FAULT_RE = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<at>\d+)(?::(?P<target>[A-Za-z0-9_.-]+))?"
    r"(?:=(?P<amount>[0-9.eE+-]+))?$"
)


@dataclass(frozen=True, order=True)
class Fault:
    """One scheduled fault; immutable and totally ordered for stable specs."""

    kind: str
    at: int
    target: str | None = None
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DELIVERY_KINDS + STEP_KINDS:
            raise SimTestError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise SimTestError(f"fault {self.kind!r} needs a counter >= 0")
        if self.kind in ("crash", "revive", "cancel") and not self.target:
            raise SimTestError(f"fault {self.kind!r} needs a target (kind@N:target)")
        if self.is_master_crash and self.at < 1:
            raise SimTestError(
                "crash@N:master fires on the flow-step counter and needs N >= 1"
            )
        if self.kind == "delay" and self.amount <= 0:
            raise SimTestError("delay faults need an amount (delay@N=seconds)")

    def spec(self) -> str:
        text = f"{self.kind}@{self.at}"
        if self.target:
            text += f":{self.target}"
        if self.kind == "delay":
            text += f"={self.amount:g}"
        return text

    @property
    def is_master_crash(self) -> bool:
        return self.kind == "crash" and self.target == MASTER_TARGET


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of one-shot faults."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a comma-joined fault spec; empty/``none`` is the empty plan."""
        spec = spec.strip()
        if not spec or spec == "none":
            return cls()
        faults = []
        for item in spec.split(","):
            item = item.strip()
            match = _FAULT_RE.match(item)
            if match is None:
                raise SimTestError(f"malformed fault {item!r} in plan {spec!r}")
            amount = match.group("amount")
            faults.append(
                Fault(
                    kind=match.group("kind"),
                    at=int(match.group("at")),
                    target=match.group("target"),
                    amount=float(amount) if amount is not None else 0.0,
                )
            )
        return cls(tuple(faults))

    @classmethod
    def of(cls, faults: Iterable[Fault]) -> "FaultPlan":
        return cls(tuple(faults))

    def spec(self) -> str:
        """The canonical spec string (``none`` for the empty plan)."""
        if not self.faults:
            return "none"
        return ",".join(fault.spec() for fault in self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def without(self, index: int) -> "FaultPlan":
        """A copy with one fault removed (the shrinker's reduction move)."""
        return FaultPlan(self.faults[:index] + self.faults[index + 1 :])

    def delivery_faults(self) -> list[Fault]:
        return [
            f
            for f in self.faults
            if f.kind in DELIVERY_KINDS and not f.is_master_crash
        ]

    def master_crashes(self) -> list[Fault]:
        return [f for f in self.faults if f.is_master_crash]
