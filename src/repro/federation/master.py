"""The Master node: orchestration, dataset tracking, aggregation paths.

Paper §2, *Master Node*: "The Master node governs the communication with and
among the workers and keeps track of the dataset availability on each worker
for efficient algorithm shipping.  It also orchestrates the algorithm flow
and handles the aggregates returned from the local computations.  Finally, it
is also possible to perform computations locally as well."

Every per-worker loop here fans out through the transport's concurrent
dispatch (:meth:`Transport.send_many` / :meth:`Transport.broadcast`), the
in-process stand-in for the production platform's task queue: local steps,
catalog refreshes, transfer prefetches, secure-share fetches and broadcasts
all overlap across workers instead of accumulating serially.

Worker loss is governed by a :class:`~repro.federation.policy.FailurePolicy`:
under ``on_worker_loss="fail"`` (the default) the first unreachable worker
aborts the flow, exactly the legacy behavior; under ``"degrade"`` each
fan-out drops the lost workers from its result and continues with the
surviving quorum (``min_workers``), raising
:class:`~repro.errors.QuorumError` when too few remain.  A
:class:`~repro.federation.policy.WorkerHealth` circuit breaker tracks
consecutive failures per worker and re-admits a worker the moment it answers
again (e.g. a later catalog ping).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Mapping, Sequence

from repro.engine.database import Database
from repro.errors import (
    DatasetUnavailableError,
    FederationError,
    NodeUnavailableError,
    QuorumError,
)
from repro.federation.policy import FailurePolicy, WorkerHealth
from repro.federation.serialization import table_from_payload
from repro.federation.transport import BroadcastResult, Transport
from repro.observability.audit import AuditLog, owned_by
from repro.observability.trace import tracer
from repro.smpc.cluster import NoiseSpec, SMPCCluster
from repro.udfgen.decorators import udf_registry
from repro.udfgen.generator import generate_udf_application, run_udf_application

MASTER_ID = "master"
SMPC_ID = "smpc_cluster"


class Master:
    """Coordinator node; owns a global database for global steps."""

    def __init__(
        self,
        transport: Transport,
        worker_ids: Sequence[str],
        smpc_cluster: SMPCCluster | None = None,
        failure_policy: FailurePolicy | None = None,
    ) -> None:
        self.node_id = MASTER_ID
        self.transport = transport
        self.worker_ids = list(worker_ids)
        self.smpc_cluster = smpc_cluster
        self.policy = failure_policy or FailurePolicy()
        self.health = WorkerHealth(self.policy.failure_threshold)
        #: Append-only privacy audit trail of everything this master touched.
        self.audit = AuditLog(MASTER_ID)
        self.database = Database(name=MASTER_ID)
        self.database.set_remote_resolver(self._resolve_remote)
        self._availability: dict[str, dict[str, list[str]]] = {}
        self._global_outputs: dict[str, tuple[str, str]] = {}  # table -> (kind, owning job)
        # Per-job table counters: names like merge_{job}_{n} must not
        # depend on what *other* experiments did concurrently (a shared
        # counter leaks into payload sizes via the table-name digits), so
        # each job id counts its own tables deterministically.
        self._job_counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        # The master's database hosts every experiment's global steps;
        # the engine is not safe under concurrent mutation, so global-step
        # execution and table management serialize here.  Worker fan-outs
        # (the expensive, latency-bound part) stay outside this lock.
        self._db_lock = threading.RLock()
        # Transfer tables prefetched by a parallel fan-out, keyed by
        # 'worker/table'; the remote resolver consumes them so resolution at
        # query time needs no further network round trips.
        self._prefetched: dict[str, Any] = {}
        self._prefetch_lock = threading.Lock()

    # ---------------------------------------------------------- catalog/avail

    def refresh_catalog(self) -> dict[str, dict[str, list[str]]]:
        """Poll workers for their datasets; tolerate unreachable workers.

        The poll is one broadcast: every worker answers concurrently, and the
        availability map is assembled in ``worker_ids`` order so the result
        never depends on response timing.
        """
        responses = self.transport.broadcast(
            self.node_id, self.worker_ids, "list_datasets", on_error="skip"
        )
        self._note_broadcast_health(responses)
        availability: dict[str, dict[str, list[str]]] = {}
        for worker in self.worker_ids:
            response = responses.get(worker)
            if response is None:
                continue
            for data_model, codes in response["datasets"].items():
                model_map = availability.setdefault(data_model, {})
                for code in codes:
                    model_map.setdefault(code, []).append(worker)
        self._availability = availability
        return availability

    @property
    def availability(self) -> dict[str, dict[str, list[str]]]:
        if not self._availability:
            self.refresh_catalog()
        return self._availability

    def workers_for(self, data_model: str, datasets: Sequence[str]) -> list[str]:
        """Workers holding at least one of the requested datasets."""
        model_map = self.availability.get(data_model)
        if model_map is None:
            raise DatasetUnavailableError(f"no worker holds data model {data_model!r}")
        chosen: list[str] = []
        missing: list[str] = []
        for code in datasets:
            holders = model_map.get(code)
            if not holders:
                missing.append(code)
                continue
            for worker in holders:
                if worker not in chosen:
                    chosen.append(worker)
        if missing:
            raise DatasetUnavailableError(
                f"datasets {missing} are not available on any active worker"
            )
        return chosen

    def alive_workers(self) -> list[str]:
        """Workers answering a ping right now.

        Pings go to *every* registered worker, including quarantined ones:
        an answer re-admits a worker through the circuit breaker (recovery),
        a miss extends its quarantine.
        """
        responses = self.transport.broadcast(
            self.node_id, self.worker_ids, "ping", on_error="skip"
        )
        self._note_broadcast_health(responses)
        return [worker for worker in self.worker_ids if worker in responses]

    def _note_broadcast_health(self, responses: BroadcastResult) -> None:
        """Feed one skip-broadcast's outcome into the circuit breaker."""
        for worker in self.worker_ids:
            if worker in responses:
                self.health.record_success(worker)
            elif worker in getattr(responses, "failed", {}):
                self.health.record_failure(worker)

    # ------------------------------------------------------- policy dispatch

    def _fan_out(
        self,
        sender: str,
        requests: Sequence[tuple[str, str, dict[str, Any] | None]],
        what: str,
    ) -> tuple[dict[str, dict[str, Any]], dict[str, FederationError]]:
        """One policy-governed fan-out to workers.

        Returns ``(responses, lost)`` keyed by worker (request order).  Under
        ``on_worker_loss="fail"`` any unavailable worker re-raises its error;
        under ``"degrade"`` lost workers are evicted from the result and the
        surviving set is checked against the ``min_workers`` quorum.
        Permanent errors (handler exceptions, validation failures) always
        propagate — degrading only ever swallows unavailability.
        """
        workers = [request[0] for request in requests]
        with tracer.span("master.fan_out", what=what, n=len(workers)) as span:
            results = self.transport.send_many(sender, requests, on_error="return")
            responses: dict[str, dict[str, Any]] = {}
            lost: dict[str, FederationError] = {}
            for worker, result in zip(workers, results):
                if isinstance(result, NodeUnavailableError):
                    lost[worker] = result
                elif isinstance(result, BaseException):
                    raise result
                else:
                    responses[worker] = result
            for worker in responses:
                self.health.record_success(worker)
            for worker in lost:
                self.health.record_failure(worker)
            if lost:
                span.set_attribute("lost", sorted(lost))
                first = next(iter(lost.values()))
                if not self.policy.degrade:
                    raise first
                if len(responses) < self.policy.min_workers:
                    raise QuorumError(
                        f"{what}: only {len(responses)} of {len(workers)} workers "
                        f"reachable; quorum requires {self.policy.min_workers}"
                    ) from first
        return responses, lost

    # ------------------------------------------------------------ local steps

    def run_local_step(
        self,
        job_id: str,
        udf_name: str,
        per_worker_arguments: Mapping[str, Mapping[str, Any]],
    ) -> dict[str, list[dict[str, str]]]:
        """Run one local computation on each named worker, concurrently.

        ``per_worker_arguments`` maps worker id to that worker's argument
        specs.  Returns {worker: [{"table":..., "kind":...}, ...]}.  Under a
        degrading failure policy, workers lost mid-step are simply absent
        from the result (the caller evicts them from the flow); a quorum
        violation raises :class:`~repro.errors.QuorumError`.
        """
        workers = list(per_worker_arguments)
        responses, _lost = self._fan_out(
            self.node_id,
            [
                (
                    worker,
                    "run_udf",
                    {
                        "job_id": job_id,
                        "udf_name": udf_name,
                        "arguments": dict(per_worker_arguments[worker]),
                    },
                )
                for worker in workers
            ],
            what=f"local step {udf_name!r}",
        )
        return {
            worker: responses[worker]["outputs"] for worker in workers if worker in responses
        }

    def _next_counter(self, job_id: str) -> int:
        with self._counter_lock:
            value = self._job_counters.get(job_id, 0) + 1
            self._job_counters[job_id] = value
            return value

    # ------------------------------------------------------ aggregation paths

    def gather_transfers_plain(
        self, job_id: str, worker_tables: Mapping[str, str]
    ) -> list[dict[str, Any]]:
        """Non-secure path: remote + merge tables (never materialized).

        The master declares one remote table per worker output and a merge
        table over them; selecting from the merge table pulls each transfer
        through the remote resolver at query time.  The transfers themselves
        are prefetched with one concurrent fan-out, so the query-time
        resolver hits the prefetch instead of issuing serial round trips.

        Under a degrading failure policy, workers lost between their local
        step and this gather are skipped (quorum permitting): the merge
        covers surviving transfers only.
        """
        counter = self._next_counter(job_id)
        ordered = sorted(worker_tables.items())
        with tracer.span("master.plain_gather", job=job_id, n=len(ordered)):
            lost = self._prefetch_tables(ordered)
            if lost:
                ordered = [(worker, table) for worker, table in ordered if worker not in lost]
            merge_name = f"merge_{job_id}_{counter}"
            declared = [merge_name]
            with self._db_lock:
                try:
                    self.database.execute(f"CREATE MERGE TABLE {merge_name} (transfer VARCHAR)")
                    for index, (worker, table) in enumerate(ordered):
                        remote_name = f"remote_{job_id}_{counter}_{index}"
                        self.database.execute(
                            f"CREATE REMOTE TABLE {remote_name} (transfer VARCHAR) ON '{worker}/{table}'"
                        )
                        declared.append(remote_name)
                        self.database.execute(f"ALTER TABLE {merge_name} ADD TABLE {remote_name}")
                    merged = self.database.query(f"SELECT * FROM {merge_name}")
                finally:
                    # The declarations only exist to route this one SELECT;
                    # once it has materialised they are dead catalog entries.
                    for name in declared:
                        self.database.drop_table(name, if_exists=True)
        self.audit.record(
            "plain_aggregate",
            job_id=job_id,
            workers=[worker for worker, _table in ordered],
            dropped=sorted(lost),
        )
        return [json.loads(blob) for blob in merged.column("transfer").to_list()]

    def _prefetch_tables(self, worker_tables: Sequence[tuple[str, str]]) -> set[str]:
        """Fetch several workers' transfer tables in one parallel fan-out.

        Returns the workers lost during the fetch (empty unless the failure
        policy degrades).
        """
        responses, lost = self._fan_out(
            self.node_id,
            [
                (worker, "fetch_table", {"table": table})
                for worker, table in worker_tables
            ],
            what="transfer prefetch",
        )
        with self._prefetch_lock:
            for worker, table in worker_tables:
                if worker in responses:
                    self._prefetched[f"{worker}/{table}"] = responses[worker]["table"]
        return set(lost)

    def gather_transfers_secure(
        self,
        job_id: str,
        worker_tables: Mapping[str, str],
        noise: NoiseSpec | None = None,
    ) -> dict[str, Any]:
        """Secure path: signal the SMPC cluster to import and aggregate.

        The share payloads are fetched from all workers concurrently; the
        cluster then imports them in sorted worker order (imports mutate
        protocol state, so they stay sequential and deterministic).

        Under a degrading failure policy a worker lost before its payload
        was fetched is dropped from the job — its shares never enter the
        cluster, and the survivors' payloads are freshly secret-shared, so
        the aggregate is a valid sharing over exactly the surviving quorum.
        If the cluster already holds a partial contribution for a lost
        worker (an earlier retried import), it is discarded before
        aggregation so the result can never mix a dead worker's data in.

        Returns the single aggregated transfer dict (key -> aggregated data).
        """
        if self.smpc_cluster is None:
            raise FederationError("no SMPC cluster is configured")
        ordered = sorted(worker_tables.items())
        with tracer.span("master.secure_gather", job=job_id, n=len(ordered)):
            responses, lost = self._fan_out(
                SMPC_ID,
                [(worker, "get_secure_payload", {"table": table}) for worker, table in ordered],
                what="secure-share fetch",
            )
            for worker in lost:
                self.smpc_cluster.drop_worker(job_id, worker)
            for worker, _table in ordered:
                if worker in responses:
                    self.smpc_cluster.import_shares(
                        job_id, worker, responses[worker]["payload"]
                    )
            try:
                aggregated = self.smpc_cluster.aggregate(job_id, noise=noise)
            except Exception:
                self.smpc_cluster.abort_job(job_id)
                raise
        self.audit.record(
            "secure_aggregate",
            job_id=job_id,
            workers=sorted(responses),
            dropped=sorted(lost),
            keys=sorted(aggregated),
        )
        return {key: value for key, value in aggregated.items()}

    # ----------------------------------------------------------- global steps

    def run_global_step(
        self, job_id: str, udf_name: str, arguments: Mapping[str, Any]
    ) -> list[dict[str, str]]:
        """Run a global computation step on the master's own engine."""
        spec = udf_registry.get(udf_name)
        with self._db_lock:
            application = generate_udf_application(spec, f"{job_id}_global", dict(arguments))
            run_udf_application(self.database, application)
            outputs = []
            for table, iotype in zip(application.output_tables, application.output_kinds):
                self._global_outputs[table] = (iotype.kind, job_id)
                outputs.append({"table": table, "kind": iotype.kind})
        return outputs

    def store_global_transfer(self, job_id: str, data: Mapping[str, Any]) -> str:
        """Materialize an aggregated dict as a transfer table on the master."""
        counter = self._next_counter(job_id)
        table = f"transfer_{job_id}_{counter}"
        blob = json.dumps(dict(data)).replace("'", "''")
        with self._db_lock:
            self.database.execute(f"CREATE TABLE {table} (transfer VARCHAR)")
            self.database.execute(f"INSERT INTO {table} VALUES ('{blob}')")
            self._global_outputs[table] = ("transfer", job_id)
        return table

    def read_transfer(self, table: str) -> dict[str, Any]:
        """Read a transfer table on the master."""
        with self._db_lock:
            kind, _owner = self._global_outputs.get(table, (None, None))
            if kind is None:
                raise FederationError(f"table {table!r} is not a known global output")
            if kind not in ("transfer", "secure_transfer"):
                raise FederationError(f"table {table!r} is a {kind!r}, not a transfer")
            blob = self.database.scalar(f"SELECT * FROM {table}")
        return json.loads(blob)

    def broadcast_transfer(self, job_id: str, table: str, workers: Sequence[str]) -> dict[str, str]:
        """Ship a global transfer to workers for the next local iteration.

        Returns {worker: placed table}; under a degrading failure policy,
        workers lost during the broadcast are absent from the result so the
        caller can evict them from the flow.
        """
        with self._db_lock:
            blob = self.database.scalar(f"SELECT * FROM {table}")
        placed = {worker: f"bcast_{table}_{worker}" for worker in workers}
        with tracer.span("master.broadcast_transfer", table=table, n=len(workers)):
            responses, _lost = self._fan_out(
                self.node_id,
                [
                    (
                        worker,
                        "put_transfer",
                        {"job_id": job_id, "table": placed[worker], "blob": blob},
                    )
                    for worker in workers
                ],
                what="global-transfer broadcast",
            )
        return {worker: placed[worker] for worker in workers if worker in responses}

    # ---------------------------------------------------------------- cleanup

    def cleanup(self, job_id: str, workers: Sequence[str]) -> None:
        """Drop a finished experiment's tables everywhere."""
        self.transport.broadcast(
            self.node_id, list(workers), "cleanup", {"job_id": job_id}, on_error="skip"
        )
        with self._db_lock:
            for table, (_kind, owner) in list(self._global_outputs.items()):
                if owned_by(owner, job_id):
                    self.database.drop_table(table, if_exists=True)
                    del self._global_outputs[table]
        with self._counter_lock:
            for key in [k for k in self._job_counters if owned_by(k, job_id)]:
                del self._job_counters[key]

    def drop_worker_tables(self, tables_by_worker: Mapping[str, Sequence[str]]) -> None:
        """Drop explicitly named tables on workers.

        Uncalled since the step cache went; the ladder's traced pass
        (benchmarks/ladder/tracing.py) still wraps the name, so it leaves
        together with that entry.  Unreachable workers are tolerated: a dead
        worker's tables die with it, and a revived one re-registers
        datasets, not tables.
        """
        requests = [
            (worker, "cleanup", {"tables": sorted(tables)})
            for worker, tables in sorted(tables_by_worker.items())
            if tables
        ]
        if not requests:
            return
        self.transport.send_many(self.node_id, requests, on_error="return")

    # ----------------------------------------------------------------- remote

    def _resolve_remote(self, location: str):
        """Remote-table resolver: 'worker/table' -> Table, via the transport.

        Prefetched payloads (from :meth:`_prefetch_tables`) are consumed
        first; only cold lookups go over the network.
        """
        with self._prefetch_lock:
            payload = self._prefetched.pop(location, None)
        if payload is not None:
            return table_from_payload(payload)
        try:
            worker, table = location.split("/", 1)
        except ValueError:
            raise FederationError(f"bad remote location {location!r}") from None
        response = self.transport.send(self.node_id, worker, "fetch_table", {"table": table})
        return table_from_payload(response["table"])
