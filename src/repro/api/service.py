"""MIPService: the user-facing surface of the platform.

Exposes what the MIP dashboard (paper Figure 3) exposes: the data catalogue
(data models, variables, datasets and who holds them), the algorithm list
with parameter specifications, experiment submission, and the experiment
history.  In deployment this sits behind a Quart REST API; here it is a
plain facade so examples, tests and benchmarks drive it directly.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentResult
from repro.core.registry import algorithm_registry
from repro.data.cdes import cde_registry
from repro.errors import CatalogError
from repro.federation.controller import Federation
from repro.smpc.cluster import NoiseSpec

# Algorithms register themselves on import.
import repro.algorithms  # noqa: F401


class MIPService:
    """One user session against a running federation."""

    def __init__(
        self,
        federation: Federation,
        aggregation: str = "smpc",
        noise: NoiseSpec | None = None,
        pool_size: int = 1,
        max_queued: int = 128,
        state_dir: str | None = None,
        fsync_every: int = 8,
    ) -> None:
        self.federation = federation
        #: Durable execution: with ``state_dir`` set, every job lifecycle
        #: transition and every value read out of the federation is
        #: journaled, so a crashed service restarted on the same directory
        #: folds the journal, restores finished results, and resumes
        #: interrupted experiments from their last journaled read.
        self.durability = None
        self.recovery: dict[str, Any] | None = None
        if state_dir is not None:
            from repro.durability.recovery import DurabilityManager

            self.durability = DurabilityManager(state_dir, fsync_every=fsync_every)
        self.engine = ExperimentEngine(
            federation,
            aggregation=aggregation,
            noise=noise,
            max_concurrent=pool_size,
            max_queued=max_queued,
            durability=self.durability,
        )
        if self.durability is not None:
            self.recovery = self._recover()

    def _recover(self) -> dict[str, Any]:
        """Replay the journal: restore history, re-enqueue interrupted jobs."""
        report = self.durability.recover()
        master_audit = self.federation.master.audit
        for job_id, result in report.completed.items():
            self.engine.queue.history.put(job_id, result)
        for job_id, request, priority in report.pending:
            reads = self.durability.prepare_resume(job_id)
            master_audit.record(
                "experiment_resumed",
                job_id=job_id,
                checkpoint_reads=reads,
                algorithm=request.algorithm,
            )
            self.engine.submit(request, priority=priority, experiment_id=job_id)
        return report.to_dict()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the engine and flush/close the journal (if any)."""
        self.engine.shutdown(wait=wait)
        if self.durability is not None:
            self.durability.close()

    # --------------------------------------------------------- data catalogue

    def data_models(self) -> list[str]:
        """Data models that are both catalogued and present on some worker."""
        available = self.federation.master.availability
        return sorted(model for model in available if model in cde_registry)

    def datasets(self, data_model: str) -> dict[str, str]:
        """Dataset codes of a data model and the one worker holding each."""
        availability = self.federation.master.availability
        if data_model not in availability:
            raise CatalogError(f"no worker holds data model {data_model!r}")
        return dict(availability[data_model])

    def variables(self, data_model: str) -> list[dict[str, Any]]:
        """The variable catalogue of a data model (the UI's variable picker)."""
        model = cde_registry.get(data_model)
        entries = []
        for code in model.variables():
            cde = model.cde(code)
            entries.append(
                {
                    "code": code,
                    "label": cde.label,
                    "kind": cde.kind,
                    "enumerations": list(cde.enumerations),
                    "min": cde.min_value,
                    "max": cde.max_value,
                    "unit": cde.unit,
                }
            )
        return entries

    # ------------------------------------------------------------- algorithms

    def algorithms(self) -> list[dict[str, Any]]:
        """The "Available Algorithms" panel: names, labels, parameters."""
        listing = []
        for entry in algorithm_registry.listing():
            cls = algorithm_registry.get(entry["name"])
            listing.append(
                {
                    **entry,
                    "needs_y": cls.needs_y,
                    "needs_x": cls.needs_x,
                    "y_types": list(cls.y_types),
                    "x_types": list(cls.x_types),
                    "parameters": [
                        {
                            "name": spec.name,
                            "type": spec.param_type,
                            "label": spec.label,
                            "required": spec.required,
                            "default": spec.default,
                            "min": spec.min_value,
                            "max": spec.max_value,
                            "enums": list(spec.enums) if spec.enums else None,
                        }
                        for spec in cls.parameters
                    ],
                }
            )
        return listing

    # ------------------------------------------------------------ experiments

    def run_experiment(
        self,
        algorithm: str,
        data_model: str,
        datasets: Sequence[str],
        y: Sequence[str] = (),
        x: Sequence[str] = (),
        parameters: Mapping[str, Any] | None = None,
        filter_sql: str | None = None,
        name: str = "",
    ) -> ExperimentResult:
        """Create and run an experiment (the UI's "Run Experiment" button).

        A convenience shim over the asynchronous surface: submit + wait.
        """
        return self.engine.wait(
            self.submit_experiment(
                algorithm,
                data_model,
                datasets,
                y=y,
                x=x,
                parameters=parameters,
                filter_sql=filter_sql,
                name=name,
            )
        )

    def submit_experiment(
        self,
        algorithm: str,
        data_model: str,
        datasets: Sequence[str],
        y: Sequence[str] = (),
        x: Sequence[str] = (),
        parameters: Mapping[str, Any] | None = None,
        filter_sql: str | None = None,
        name: str = "",
        priority: int = 0,
    ) -> str:
        """Enqueue an experiment; returns its id immediately (paper §2's
        asynchronous poll-by-identifier workflow)."""
        request = ExperimentRequest(
            algorithm=algorithm,
            data_model=data_model,
            datasets=tuple(datasets),
            y=tuple(y),
            x=tuple(x),
            parameters=dict(parameters or {}),
            filter_sql=filter_sql,
            name=name,
        )
        return self.engine.submit(request, priority=priority)

    def wait_experiment(
        self, experiment_id: str, timeout: float | None = None
    ) -> ExperimentResult:
        """Block until a submitted experiment finishes."""
        return self.engine.wait(experiment_id, timeout=timeout)

    def cancel_experiment(self, experiment_id: str) -> bool:
        """Cancel a queued (guaranteed) or running (cooperative) experiment."""
        return self.engine.cancel(experiment_id)

    def experiment(self, experiment_id: str) -> ExperimentResult:
        """Poll one experiment ("My Experiments")."""
        return self.engine.get(experiment_id)

    def experiments(self) -> list[ExperimentResult]:
        return self.engine.history()

    def jobs(self) -> list[dict[str, Any]]:
        """Every submitted job's state, in submission order."""
        return [snapshot.to_dict() for snapshot in self.engine.jobs()]

    # ---------------------------------------------------------- observability

    def metrics_registry(self):
        """The federation-wide unified metrics registry (lazily evaluated),
        extended with this service's experiment-queue health."""
        registry = self.federation.metrics_registry()
        queue = self.engine.queue

        def queue_samples():
            stats = queue.stats()
            yield ("repro_queue_depth", {}, float(stats["depth"]))
            yield ("repro_queue_running", {}, float(stats["running"]))
            yield ("repro_queue_pool_size", {}, float(stats["pool_size"]))
            yield ("repro_queue_submitted_total", {}, float(stats["submitted_total"]))
            yield ("repro_queue_succeeded_total", {}, float(stats["succeeded_total"]))
            yield ("repro_queue_failed_total", {}, float(stats["failed_total"]))
            yield ("repro_queue_cancelled_total", {}, float(stats["cancelled_total"]))
            yield ("repro_queue_wait_seconds_total", {}, stats["wait_seconds_total"])
            for name, labels, value in queue.latency.samples():
                yield (name, labels, value)
            for key, q in (("p50", 0.5), ("p95", 0.95)):
                estimate = queue.latency.quantile(q)
                if estimate is not None:
                    yield (f"repro_experiment_duration_{key}_seconds", {}, estimate)

        registry.register_collector(queue_samples)
        if self.durability is not None:
            registry.register_collector(self.durability.metrics_samples)
        return registry

    def metrics_snapshot(self) -> dict[str, Any]:
        """Every current metric value as one JSON-ready mapping."""
        return self.metrics_registry().snapshot()

    def render_metrics(self) -> str:
        """The Prometheus text exposition of the unified registry."""
        return self.metrics_registry().render_prometheus()

    def attach_profiler(self, profiler) -> bool:
        """Attach (and start) a sampling profiler for per-job profiles.

        Returns False, starting nothing, when a simulation runtime drives
        the federation: its scheduling must stay a pure function of the
        seed, so no free-running sampler thread may exist.
        """
        if self.federation.transport.sim is not None:
            return False
        profiler.start()
        self.engine.queue.profiler = profiler
        return True

    # ----------------------------------------------------------------- status

    def status(self) -> dict[str, Any]:
        """Platform health: node liveness, caseload, traffic, SMPC usage."""
        master = self.federation.master
        alive = master.alive_workers()
        availability = master.refresh_catalog()
        datasets = {
            model: sorted(codes) for model, codes in availability.items()
        }
        caseload = {}
        for model in availability:
            total = 0
            for worker_id in alive:
                worker = self.federation.workers[worker_id]
                # A worker can advertise a model whose table is not (yet)
                # materialized — e.g. registered datasets with deferred
                # loading — so guard on the table too, not just the catalog.
                if model in worker.datasets() and worker.database.has_table(
                    f"data_{model}"
                ):
                    total += worker.database.get_table(f"data_{model}").num_rows
            caseload[model] = total
        transport = self.federation.transport.stats
        payload: dict[str, Any] = {
            "workers": {
                worker: ("up" if worker in alive else "down")
                for worker in self.federation.workers
            },
            "data_models": datasets,
            "caseload_rows": caseload,
            "aggregation": self.engine.aggregation,
            "transport": {
                "messages": transport.messages,
                "bytes_sent": transport.bytes_sent,
                "simulated_seconds": round(transport.simulated_seconds, 6),
            },
            "experiments": {
                "total": len(self.engine.history()),
                "succeeded": sum(
                    1 for r in self.engine.history() if r.status.value == "success"
                ),
            },
            "queue": self.engine.queue.stats(),
        }
        if self.durability is not None:
            payload["durability"] = self.durability.stats()
        cluster = self.federation.smpc_cluster
        if cluster is not None:
            payload["smpc"] = {
                "scheme": cluster.scheme,
                "nodes": cluster.n_nodes,
                "rounds": cluster.communication.rounds,
                "elements": cluster.communication.elements,
                "offline_triples": cluster.offline_usage.triples,
                "offline_random_bits": cluster.offline_usage.random_bits,
            }
        return payload
