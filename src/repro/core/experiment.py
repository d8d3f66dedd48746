"""Experiment lifecycle: request, execution, result.

Mirrors the UI flow in paper Figure 3: pick variables, datasets and an
algorithm, set parameters, run, and poll the experiment until it finishes.

The machinery lives in two collaborators: :class:`~repro.core.runner.ExperimentRunner`
(the pure validate → plan → contextualize → execute path) and
:class:`~repro.core.jobs.ExperimentQueue` (admission control, executor pool,
job states, per-job telemetry, history).  :class:`ExperimentEngine` is the
thin facade tying them together; its synchronous :meth:`ExperimentEngine.run`
is submit + wait, so sequential callers behave exactly as before while
``submit``/``cancel`` unlock the paper's asynchronous, poll-by-id workflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ExperimentNotFoundError  # noqa: F401 - re-export
from repro.federation.controller import Federation
from repro.smpc.cluster import NoiseSpec


class ExperimentStatus(enum.Enum):
    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    SUCCESS = "success"
    ERROR = "error"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class ExperimentRequest:
    """Everything the UI collects before hitting "Run Experiment"."""

    algorithm: str
    data_model: str
    datasets: tuple[str, ...]
    y: tuple[str, ...] = ()
    x: tuple[str, ...] = ()
    parameters: Mapping[str, Any] = field(default_factory=dict)
    filter_sql: str | None = None
    name: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (persisted verbatim in the durability journal)."""
        return {
            "algorithm": self.algorithm,
            "data_model": self.data_model,
            "datasets": list(self.datasets),
            "y": list(self.y),
            "x": list(self.x),
            "parameters": dict(self.parameters),
            "filter_sql": self.filter_sql,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentRequest":
        return cls(
            algorithm=str(payload["algorithm"]),
            data_model=str(payload["data_model"]),
            datasets=tuple(payload.get("datasets", ())),
            y=tuple(payload.get("y", ())),
            x=tuple(payload.get("x", ())),
            parameters=dict(payload.get("parameters", {})),
            filter_sql=payload.get("filter_sql"),
            name=str(payload.get("name", "")),
        )


@dataclass(frozen=True)
class ExperimentTelemetry:
    """Resource usage attributable to one experiment."""

    messages: int = 0
    bytes_sent: int = 0
    simulated_network_seconds: float = 0.0
    smpc_rounds: int = 0
    smpc_elements: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "simulated_network_seconds": self.simulated_network_seconds,
            "smpc_rounds": self.smpc_rounds,
            "smpc_elements": self.smpc_elements,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentTelemetry":
        return cls(
            messages=int(payload.get("messages", 0)),
            bytes_sent=int(payload.get("bytes_sent", 0)),
            simulated_network_seconds=float(
                payload.get("simulated_network_seconds", 0.0)
            ),
            smpc_rounds=int(payload.get("smpc_rounds", 0)),
            smpc_elements=int(payload.get("smpc_elements", 0)),
        )


@dataclass
class ExperimentResult:
    """A finished (or failed) experiment."""

    experiment_id: str
    request: ExperimentRequest
    status: ExperimentStatus
    result: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    elapsed_seconds: float = 0.0
    workers: tuple[str, ...] = ()
    telemetry: ExperimentTelemetry = field(default_factory=ExperimentTelemetry)
    #: Privacy audit trail for this experiment, merged across master and
    #: workers: a sequence of AuditEvent dicts (an ``AuditTrail`` over the
    #: nodes' own records for a live result, a plain tuple for a restored one;
    #: see observability.audit).
    audit: Sequence[Mapping[str, Any]] = ()
    #: Workers evicted mid-flow by the failure policy (empty on clean runs).
    evicted: tuple[str, ...] = ()
    #: Critical-path analysis of this experiment's span tree (populated by
    #: the queue when the tracer was enabled for the run; see
    #: :mod:`repro.observability.critical_path`).
    critical_path: dict[str, Any] | None = None
    #: Collapsed-stack profiler samples attributed to this job (populated
    #: when a :class:`~repro.observability.profiler.SamplingProfiler` is
    #: attached to the queue).
    profile: str | None = None
    #: Always 0: the cross-experiment step cache that set it is gone.  The
    #: field stays so journals written before its removal restore, and
    #: because the ladder (benchmarks/ladder/driver.py) still reads it.
    dedup_hits: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Full JSON round-trip form, including audit, evictions and the
        critical-path analysis — what durability snapshots persist and what
        ``repro jobs`` output can be diffed against."""
        return {
            "experiment_id": self.experiment_id,
            "request": self.request.to_dict(),
            "status": self.status.value,
            "result": self.result,
            "error": self.error,
            "elapsed_seconds": self.elapsed_seconds,
            "workers": list(self.workers),
            "telemetry": self.telemetry.to_dict(),
            "audit": [dict(event) for event in self.audit],
            "evicted": list(self.evicted),
            "critical_path": self.critical_path,
            "profile": self.profile,
            "dedup_hits": self.dedup_hits,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        return cls(
            experiment_id=str(payload["experiment_id"]),
            request=ExperimentRequest.from_dict(payload["request"]),
            status=ExperimentStatus(payload["status"]),
            result=dict(payload.get("result", {})),
            error=payload.get("error"),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            workers=tuple(payload.get("workers", ())),
            telemetry=ExperimentTelemetry.from_dict(payload.get("telemetry", {})),
            audit=tuple(payload.get("audit", ())),
            evicted=tuple(payload.get("evicted", ())),
            critical_path=payload.get("critical_path"),
            profile=payload.get("profile"),
            dedup_hits=int(payload.get("dedup_hits", 0)),
        )


class ExperimentEngine:
    """Runs experiments against a federation.

    ``aggregation`` selects the paper's two data-aggregation paths:
    ``"smpc"`` (secure, default) or ``"plain"`` (remote/merge tables).
    ``max_concurrent`` sizes the executor pool; the default of 1 keeps
    strictly sequential semantics for synchronous callers.
    """

    def __init__(
        self,
        federation: Federation,
        aggregation: str = "smpc",
        noise: NoiseSpec | None = None,
        max_concurrent: int = 1,
        max_queued: int = 128,
        durability=None,
    ) -> None:
        # Imported lazily: runner/jobs import this module for the result
        # dataclasses, so a module-level import would be circular.
        from repro.core.jobs import ExperimentQueue
        from repro.core.runner import ExperimentRunner

        self.federation = federation
        #: Optional :class:`~repro.durability.recovery.DurabilityManager`
        #: shared by the queue (journaling) and the runner (journaled
        #: reads + resume); ``MIPService(state_dir=...)`` wires one in.
        self.durability = durability
        self.runner = ExperimentRunner(
            federation,
            aggregation=aggregation,
            noise=noise,
            durability=durability,
        )
        self.queue = ExperimentQueue(
            self.runner,
            max_concurrent=max_concurrent,
            max_queued=max_queued,
            durability=durability,
        )

    # Algorithm code and tests read these off the engine; they live on the
    # runner now, so present them as delegating properties.
    @property
    def aggregation(self) -> str:
        return self.runner.aggregation

    @aggregation.setter
    def aggregation(self, value: str) -> None:
        self.runner.aggregation = value

    # ------------------------------------------------------------------- run

    def run(self, request: ExperimentRequest) -> ExperimentResult:
        """Synchronous execution: submit to the queue and wait."""
        return self.wait(self.submit(request))

    def submit(
        self,
        request: ExperimentRequest,
        priority: int = 0,
        experiment_id: str | None = None,
    ) -> str:
        """Enqueue an experiment; returns its id immediately (paper §2's
        "assigned a global unique identifier, used to retrieve results
        asynchronously")."""
        return self.queue.submit(request, priority=priority, experiment_id=experiment_id)

    def wait(self, experiment_id: str, timeout: float | None = None) -> ExperimentResult:
        return self.queue.wait(experiment_id, timeout=timeout)

    def cancel(self, experiment_id: str) -> bool:
        """Cancel a queued (guaranteed) or running (cooperative) experiment."""
        return self.queue.cancel(experiment_id)

    def get(self, experiment_id: str) -> ExperimentResult:
        return self.queue.get(experiment_id)

    def history(self) -> list[ExperimentResult]:
        return self.queue.history.list()

    def jobs(self):
        """Snapshots of every submitted job, in submission order."""
        return self.queue.jobs()

    def shutdown(self, wait: bool = True) -> None:
        self.queue.shutdown(wait=wait)
