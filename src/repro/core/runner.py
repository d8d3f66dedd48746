"""The pure experiment execution path: validate → plan → contextualize → run.

:class:`ExperimentRunner` is the stateless core the job queue dispatches to.
It carries no history, no telemetry and no lifecycle bookkeeping — those are
the queue's concern (:mod:`repro.core.jobs`) — so the same runner can serve
any number of concurrent executor threads.  Each dataset lives on exactly
one worker (the master refuses any other layout), so planning an experiment
is a lookup: every requested code is read on the worker that holds it.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.context import ExecutionContext
from repro.core.registry import algorithm_registry
from repro.core.specs import validate_parameters
from repro.engine.parser import parse_expression
from repro.errors import DatasetUnavailableError, ParseError, SpecificationError
from repro.federation.controller import Federation
from repro.smpc.cluster import NoiseSpec


class ExperimentRunner:
    """Executes one experiment request against a federation.

    ``aggregation`` selects the paper's two data-aggregation paths:
    ``"smpc"`` (secure, default) or ``"plain"`` (remote/merge tables).
    """

    def __init__(
        self,
        federation: Federation,
        aggregation: str = "smpc",
        noise: NoiseSpec | None = None,
        durability=None,
    ) -> None:
        self.federation = federation
        self.aggregation = aggregation
        self.noise = noise
        #: Optional :class:`~repro.durability.recovery.DurabilityManager`.
        #: The runner threads it into every execution context: reads are
        #: journaled as they happen, and a job recovered after a crash
        #: replays its recorded frontier instead of re-executing from step 0.
        self.durability = durability

    def execute(
        self,
        request,
        experiment_id: str,
        cancel_event: threading.Event | None = None,
        info: dict[str, Any] | None = None,
    ) -> tuple[dict[str, Any], tuple[str, ...]]:
        """Run one experiment to completion; raises on any failure.

        Returns ``(result_data, workers)``.  A set ``cancel_event`` stops the
        flow at the next step boundary with
        :class:`~repro.errors.ExperimentCancelledError`; the context's tables
        are cleaned up best-effort on that path and on any other failure.
        ``info``, when given, is filled with ``workers`` as soon as the
        context exists, so failed flows can still report who participated.
        """
        sim = self.federation.transport.sim
        if sim is not None:
            sim.flow_step(f"execute:{experiment_id}")
        algorithm_cls = algorithm_registry.get(request.algorithm)
        parameters = validate_parameters(algorithm_cls.parameters, request.parameters)
        self._check_variables(algorithm_cls, request)
        _check_filter(request.filter_sql)
        metadata = self._variable_metadata(algorithm_cls, request)
        context = self.build_context(request, experiment_id, cancel_event)
        workers = tuple(context.workers)
        if info is not None:
            info["workers"] = workers
        try:
            algorithm = algorithm_cls(
                context,
                y=list(request.y),
                x=list(request.x),
                parameters=parameters,
                metadata=metadata,
            )
            result_data = algorithm.run()
            context.cleanup()
        except Exception:
            # A failed or cancelled flow leaves no tables (or data views)
            # behind either; a simulated master crash is process death and
            # passes through untouched.
            try:
                context.cleanup()
            except Exception:  # noqa: BLE001 - the flow's own error must surface
                pass
            raise
        finally:
            if info is not None:
                info["evicted"] = tuple(sorted(context.evicted))
                info["plan"] = context.plan
        return result_data, workers

    # --------------------------------------------------------------- helpers

    def _check_variables(self, algorithm_cls, request) -> None:
        if algorithm_cls.needs_y == "required" and not request.y:
            raise SpecificationError(
                f"algorithm {request.algorithm!r} requires dependent variables (y)"
            )
        if algorithm_cls.needs_x == "required" and not request.x:
            raise SpecificationError(
                f"algorithm {request.algorithm!r} requires covariates (x)"
            )
        if algorithm_cls.needs_y == "none" and request.y:
            raise SpecificationError(f"algorithm {request.algorithm!r} takes no y variables")
        if algorithm_cls.needs_x == "none" and request.x:
            raise SpecificationError(f"algorithm {request.algorithm!r} takes no x variables")
        if not request.datasets:
            raise SpecificationError("an experiment needs at least one dataset")

    def _variable_metadata(self, algorithm_cls, request) -> dict[str, Any]:
        """Validate variables against the data model's CDEs; return metadata."""
        from repro.data.cdes import cde_registry

        if request.data_model not in cde_registry:
            # Unregistered data models are allowed (e.g. ad-hoc test data);
            # algorithms then receive no metadata and treat all variables as
            # numeric.
            return {}
        model = cde_registry.get(request.data_model)
        model.validate_variables(request.y, algorithm_cls.y_types)
        model.validate_variables(request.x, algorithm_cls.x_types)
        return model.metadata_for(list(request.y) + list(request.x))

    def build_context(
        self,
        request,
        experiment_id: str,
        cancel_event: threading.Event | None = None,
    ) -> ExecutionContext:
        master = self.federation.master
        holders = master.refresh_catalog().get(request.data_model, {})
        missing = sorted(code for code in request.datasets if code not in holders)
        if missing:
            raise DatasetUnavailableError(
                f"datasets {missing} are not available on any active worker"
            )
        assignments: dict[str, list[str]] = {}
        for code in request.datasets:
            assignments.setdefault(holders[code], []).append(code)
        resume_reads = None
        if self.durability is not None:
            resume_reads = self.durability.take_resume_reads(experiment_id)
        return ExecutionContext(
            master=master,
            data_model=request.data_model,
            worker_datasets={w: sorted(codes) for w, codes in assignments.items()},
            aggregation=self.aggregation,
            noise=self.noise,
            filter_sql=request.filter_sql,
            job_prefix=experiment_id,
            cancel_event=cancel_event,
            durability=self.durability,
            resume_reads=resume_reads,
        )


def _check_filter(filter_sql: str | None) -> None:
    """Reject a filter that is not exactly one SQL expression.

    A worker splices the filter into its data-view query as ``AND (<filter>)``,
    so text that closed the parenthesis could append clauses of its own, and a
    trailing ``--`` comment would swallow the closing one.  Both forms are
    parsed here, before any worker is contacted.
    """
    if not filter_sql:
        return
    try:
        parse_expression(filter_sql)
        parse_expression(f"({filter_sql})")
    except ParseError as exc:
        raise SpecificationError(f"filter_sql must be one SQL expression: {exc}") from None
