"""Federation assembly: wire Master, Workers, SMPC cluster and transport."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Mapping

from repro.engine.table import Table
from repro.errors import FederationError
from repro.federation.master import Master
from repro.federation.policy import FailurePolicy
from repro.federation.transport import Transport
from repro.federation.worker import DEFAULT_PRIVACY_THRESHOLD, Worker
from repro.observability.audit import AuditLog
from repro.observability.metrics import MetricsRegistry, global_registry
from repro.observability.trace import tracer
from repro.smpc.cluster import SMPCCluster

@dataclass(frozen=True)
class FederationConfig:
    """Deployment knobs for a simulated federation."""

    smpc_nodes: int = 3
    smpc_scheme: str = "shamir"
    privacy_threshold: int = DEFAULT_PRIVACY_THRESHOLD
    latency_seconds: float = 0.0005
    bandwidth_bytes_per_second: float = 1.25e8
    drop_probability: float = 0.0
    seed: int | None = None
    #: Fan-out width for concurrent dispatch; None -> env var or
    #: min(32, n_workers).  1 restores fully sequential dispatch.
    parallelism: int | None = None
    #: Actually sleep each message's modeled latency (scaling benchmarks).
    sleep_latency: bool = False
    #: Fault tolerance: retries/deadline/quorum/degrade contract; None means
    #: the legacy fail-fast behavior (no retries, first loss aborts).
    failure_policy: FailurePolicy | None = None


@dataclass
class Federation:
    """A running federation: the object experiments execute against."""

    transport: Transport
    master: Master
    workers: dict[str, Worker]
    smpc_cluster: SMPCCluster | None = None
    config: FederationConfig = field(default_factory=FederationConfig)

    def worker(self, worker_id: str) -> Worker:
        try:
            return self.workers[worker_id]
        except KeyError:
            raise FederationError(f"no such worker: {worker_id!r}") from None

    def set_worker_down(self, worker_id: str, down: bool = True) -> None:
        """Failure injection: make a worker unreachable."""
        self.worker(worker_id)  # validate
        self.transport.set_down(worker_id, down)
        self.master.refresh_catalog()

    def shutdown(self) -> None:
        """Release pooled resources (the transport's fan-out executor)."""
        self.transport.shutdown()

    # ---------------------------------------------------------- observability

    def critical_path(self, clock: str = "wall", root_name: str | None = None):
        """Critical-path analysis of the process tracer's current buffer.

        Returns a :class:`~repro.observability.critical_path.CriticalPathReport`
        over the longest recorded root span (pass ``root_name="experiment"``
        to skip auxiliary roots).  ``clock="sim"`` attributes the modeled
        network seconds instead of wall time.
        """
        from repro.observability.critical_path import analyze

        return analyze(clock=clock, root_name=root_name)

    def audit_logs(self) -> list[AuditLog]:
        """Every node's append-only audit log: master first, then workers."""
        return [self.master.audit] + [
            self.workers[w].audit for w in sorted(self.workers)
        ]

    def metrics_registry(self) -> MetricsRegistry:
        """A unified registry over every live counter in this federation.

        The registry absorbs existing sources — transport stats, the UDF
        plan cache, circuit-breaker health, SMPC meters, audit event counts
        and process-wide privacy counters — via collectors, so values are
        read lazily at snapshot/render time and the original objects stay
        untouched.
        """
        from repro.udfgen.generator import plan_cache

        registry = MetricsRegistry()
        transport = self.transport
        master = self.master
        smpc = self.smpc_cluster

        def transport_samples():
            stats = transport.snapshot()
            yield ("repro_transport_messages_total", {}, float(stats.messages))
            yield ("repro_transport_bytes_sent_total", {}, float(stats.bytes_sent))
            yield ("repro_transport_payload_elements_total", {}, float(stats.payload_elements))
            yield ("repro_transport_simulated_seconds_total", {}, stats.simulated_seconds)
            yield ("repro_transport_retries_total", {}, float(stats.retries))
            yield ("repro_transport_failed_sends_total", {}, float(stats.failed_sends))
            yield ("repro_transport_parallelism", {}, float(transport.parallelism))

        def plan_cache_samples():
            stats = plan_cache.stats()
            hits, misses = stats["hits"], stats["misses"]
            yield ("repro_udf_plan_cache_hits_total", {}, float(hits))
            yield ("repro_udf_plan_cache_misses_total", {}, float(misses))
            yield ("repro_udf_plan_cache_size", {}, float(stats["size"]))
            total = hits + misses
            yield ("repro_udf_plan_cache_hit_ratio", {}, hits / total if total else 0.0)

        def health_samples():
            yield (
                "repro_worker_breaker_evictions_total",
                {},
                float(master.health.evictions),
            )
            yield (
                "repro_worker_quarantined",
                {},
                float(len(master.health.quarantined())),
            )

        def smpc_samples():
            if smpc is None:
                return
            yield ("repro_smpc_rounds_total", {}, float(smpc.communication.rounds))
            yield ("repro_smpc_elements_total", {}, float(smpc.communication.elements))
            yield ("repro_smpc_offline_triples_total", {}, float(smpc.offline_usage.triples))
            yield (
                "repro_smpc_offline_random_bits_total",
                {},
                float(smpc.offline_usage.random_bits),
            )

        def audit_samples():
            counts: dict[tuple[str, str], int] = {}
            for log in self.audit_logs():
                for event in log.events():
                    key = (event.node, event.event)
                    counts[key] = counts.get(key, 0) + 1
            for (node, event_name), count in sorted(counts.items()):
                yield (
                    "repro_audit_events_total",
                    {"node": node, "event": event_name},
                    float(count),
                )

        def privacy_samples():
            for name, value in global_registry.snapshot().items():
                if name.startswith("repro_privacy_") and isinstance(value, (int, float)):
                    yield (name, {}, float(value))

        registry.register_collector(transport_samples)
        registry.register_collector(plan_cache_samples)
        registry.register_collector(health_samples)
        registry.register_collector(smpc_samples)
        registry.register_collector(audit_samples)
        registry.register_collector(privacy_samples)
        return registry


def create_federation(
    worker_data: Mapping[str, Mapping[str, Table]],
    config: FederationConfig | None = None,
) -> Federation:
    """Build a federation from per-worker data-model tables.

    ``worker_data`` maps worker id to ``{data_model: table}``; every table
    needs a ``dataset`` column (see :meth:`Worker.load_data_model`).
    """
    config = config or FederationConfig()
    if not worker_data:
        raise FederationError("a federation needs at least one worker")
    policy = config.failure_policy or FailurePolicy()
    transport = Transport(
        latency_seconds=config.latency_seconds,
        bandwidth_bytes_per_second=config.bandwidth_bytes_per_second,
        drop_probability=config.drop_probability,
        seed=config.seed,
        max_workers=config.parallelism,
        sleep_latency=config.sleep_latency,
        retry=policy.retry_policy(),
    )
    workers: dict[str, Worker] = {}
    for worker_id, models in worker_data.items():
        worker = Worker(worker_id, privacy_threshold=config.privacy_threshold)
        for data_model, table in models.items():
            worker.load_data_model(data_model, table)
        transport.register(worker_id, worker.handle)
        workers[worker_id] = worker
    smpc = (
        SMPCCluster(config.smpc_nodes, config.smpc_scheme, seed=config.seed)
        if config.smpc_nodes
        else None
    )
    master = Master(transport, list(workers), smpc_cluster=smpc, failure_policy=policy)
    master.refresh_catalog()
    # Traces report where the *modeled* network time goes: point the process
    # tracer's simulated clock at this federation's transport.  The clock
    # holds the transport weakly — the tracer is a process-global, and a
    # strong closure here would pin the last federation (and its fan-out
    # pool threads) for the life of the process.
    transport_ref = weakref.ref(transport)

    def _sim_clock() -> float:
        live = transport_ref()
        return live.stats.simulated_seconds if live is not None else 0.0

    tracer.sim_clock = _sim_clock
    return Federation(transport, master, workers, smpc, config)
