"""Handles to step results: pointers, not data.

"The result of a local computation is kept as a pointer to the actual data"
(paper §2).  A :class:`LocalHandle` names one logical output across all
participating workers; a :class:`GlobalHandle` names one output on the
master.  Handles flow between ``local_run`` and ``global_run`` calls; the
execution context decides, from the handle's kind, whether and how bytes
actually move.
"""

from __future__ import annotations

from typing import Mapping


class LocalHandle:
    """One logical local-step output: a table per worker.

    Returned by the recording :class:`~repro.core.context.ExecutionContext`:
    kind and sharing flags are static (they come from the UDF's declared
    output types), while the physical table map is read from the producing
    plan node — which, under checkpoint replay, runs on first access.
    """

    __slots__ = ("kind", "shared_to_global", "_executor", "_ref")

    def __init__(self, executor, ref, kind: str, shared_to_global: bool) -> None:
        self._executor = executor
        self._ref = ref
        self.kind = kind
        self.shared_to_global = shared_to_global

    @property
    def ref(self):
        return self._ref

    @property
    def tables(self) -> Mapping[str, str]:
        output = self._executor.result(self._ref.node_id, self._ref.index)
        return output["tables"]

    @property
    def workers(self) -> list[str]:
        return sorted(self.tables)

    def table_on(self, worker: str) -> str:
        return self.tables[worker]


class GlobalHandle:
    """One global-step output: a table on the master."""

    __slots__ = ("kind", "shared_to_locals", "_executor", "_ref")

    def __init__(self, executor, ref, kind: str, shared_to_locals: bool) -> None:
        self._executor = executor
        self._ref = ref
        self.kind = kind
        self.shared_to_locals = shared_to_locals

    @property
    def ref(self):
        return self._ref

    @property
    def table(self) -> str:
        output = self._executor.result(self._ref.node_id, self._ref.index)
        return output["table"]
