"""The Master node: orchestration, dataset tracking, aggregation paths.

Paper §2, *Master Node*: "The Master node governs the communication with and
among the workers and keeps track of the dataset availability on each worker
for efficient algorithm shipping.  It also orchestrates the algorithm flow
and handles the aggregates returned from the local computations.  Finally, it
is also possible to perform computations locally as well."

Every per-worker loop here fans out through the transport's concurrent
dispatch (:meth:`Transport.send_many` / :meth:`Transport.broadcast`), the
in-process stand-in for the production platform's task queue: local steps,
catalog refreshes, plain-transfer fetches, secure-share fetches and broadcasts
all overlap across workers instead of accumulating serially.

Worker loss is governed by a :class:`~repro.federation.policy.FailurePolicy`:
under ``on_worker_loss="fail"`` (the default) the first unreachable worker
aborts the flow, exactly the legacy behavior; under ``"degrade"`` each
fan-out drops the lost workers from its result and continues with the
surviving quorum (``min_workers``), raising
:class:`~repro.errors.QuorumError` when too few remain.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Mapping, Sequence

from repro.engine.database import Database
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import (
    FederationError,
    NodeUnavailableError,
    QuorumError,
)
from repro.federation.policy import FailurePolicy
from repro.federation.serialization import table_from_payload, transfer_table
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
        #: Append-only privacy audit trail of everything this master touched.
        self.audit = AuditLog(MASTER_ID)
        self.database = Database(name=MASTER_ID)
        self._availability: dict[str, dict[str, str]] = {}
        self._global_outputs: dict[str, tuple[str, str]] = {}  # table -> (kind, owning job)
        # Per-job table counters: names like transfer_{job}_{n} must not
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
        # Cleanups a worker could not be reached for (an evicted worker,
        # typically), worker -> owning experiment ids; re-sent the next time
        # that worker answers a catalog refresh or a ping.
        self._missed_cleanups: dict[str, set[str]] = {}
        self._cleanup_lock = threading.Lock()

    # ---------------------------------------------------------- catalog/avail

    def refresh_catalog(self) -> dict[str, dict[str, str]]:
        """Poll workers for their datasets; tolerate unreachable workers.

        The poll is one broadcast: every worker answers concurrently, and the
        ``{data_model: {code: worker}}`` map is assembled in ``worker_ids``
        order so the result never depends on response timing.  A dataset
        lives on exactly one worker (each hospital holds its own): a code
        advertised by a second worker is audited and refused with
        :class:`~repro.errors.FederationError`, before any step is shipped.
        """
        responses = self.transport.broadcast(
            self.node_id, self.worker_ids, "list_datasets"
        )
        self._resend_missed_cleanups(responses)
        availability: dict[str, dict[str, str]] = {}
        for worker in self.worker_ids:
            response = responses.get(worker)
            if response is None:
                continue
            for data_model, codes in response["datasets"].items():
                model_map = availability.setdefault(data_model, {})
                for code in codes:
                    holder = model_map.setdefault(code, worker)
                    if holder != worker:
                        self.audit.record(
                            "duplicate_dataset",
                            data_model=data_model,
                            dataset=code,
                            workers=[holder, worker],
                        )
                        raise FederationError(
                            f"dataset {code!r} of data model {data_model!r} is held "
                            f"by both {holder!r} and {worker!r}; a dataset must "
                            "live on exactly one worker"
                        )
        self._availability = availability
        return availability

    @property
    def availability(self) -> dict[str, dict[str, str]]:
        if not self._availability:
            self.refresh_catalog()
        return self._availability

    def alive_workers(self) -> list[str]:
        """Workers answering a ping right now (pings go to every registered
        worker, so a recovered one is back in the list)."""
        responses = self.transport.broadcast(
            self.node_id, self.worker_ids, "ping"
        )
        self._resend_missed_cleanups(responses)
        return [worker for worker in self.worker_ids if worker in responses]

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
            results = self.transport.send_many(sender, requests)
            responses: dict[str, dict[str, Any]] = {}
            lost: dict[str, FederationError] = {}
            for worker, result in zip(workers, results):
                if isinstance(result, NodeUnavailableError):
                    lost[worker] = result
                elif isinstance(result, BaseException):
                    raise result
                else:
                    responses[worker] = result
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
        aggregation: str = "smpc",
    ) -> dict[str, list[dict[str, str]]]:
        """Run one local computation on each named worker, concurrently.

        ``per_worker_arguments`` maps worker id to that worker's argument
        specs.  ``aggregation`` is the path the step's secure transfers will
        take: a worker lets one be fetched in the clear only when the step
        was run for ``"plain"``.  Returns {worker: [{"table":..., "kind":...},
        ...]}.  Under a degrading failure policy, workers lost mid-step are
        simply absent from the result (the caller evicts them from the
        flow); a quorum violation raises :class:`~repro.errors.QuorumError`.
        """
        workers = list(per_worker_arguments)
        requests = []
        for worker in workers:
            payload = {
                "job_id": job_id,
                "udf_name": udf_name,
                "arguments": dict(per_worker_arguments[worker]),
            }
            # SMPC is the worker's default, so only the plain path is named.
            if aggregation != "smpc":
                payload["aggregation"] = aggregation
            requests.append((worker, "run_udf", payload))
        responses, _lost = self._fan_out(
            self.node_id,
            requests,
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
    ) -> tuple[list[dict[str, Any]], list[str]]:
        """Non-secure path: pull each worker's transfer, never store the union.

        The paper's remote and merge tables, without the catalog entries:
        one concurrent fan-out fetches every part from its node, and the
        parts are decoded in sorted-worker order.  Nothing is registered in
        the master's database and no statement runs there.

        Under a degrading failure policy, workers lost between their local
        step and this gather are skipped (quorum permitting): the result
        covers surviving transfers only.

        Returns ``(transfers, lost)``; the caller evicts ``lost`` from its
        flow so the result never claims a worker it did not aggregate.
        """
        ordered = sorted(worker_tables.items())
        with tracer.span("master.plain_gather", job=job_id, n=len(ordered)):
            responses, lost = self._fan_out(
                self.node_id,
                [(worker, "fetch_table", {"table": table}) for worker, table in ordered],
                what="plain-transfer fetch",
            )
            transfers: list[dict[str, Any]] = []
            for worker, table in ordered:
                if worker in responses:
                    part = table_from_payload(responses[worker]["table"])
                    cells = _transfer_cells(worker, table, part)
                    transfers += [json.loads(cell) for cell in cells]
        self.audit.record(
            "plain_aggregate",
            job_id=job_id,
            workers=[worker for worker, _table in ordered if worker in responses],
            dropped=sorted(lost),
        )
        return transfers, sorted(lost)

    def gather_transfers_secure(
        self,
        job_id: str,
        worker_tables: Mapping[str, str],
        noise: NoiseSpec | None = None,
    ) -> tuple[dict[str, Any], list[str]]:
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

        Returns ``(aggregated, lost)``: the single aggregated transfer dict
        (key -> aggregated data) and the workers dropped from it, which the
        caller evicts from its flow.
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
                sim = self.transport.sim
                if sim is not None:
                    # A step boundary, yielded before (never inside) the
                    # cluster lock so no parked task can hold it.
                    sim.flow_step(f"smpc:{job_id}")
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
        return dict(aggregated), sorted(lost)

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
        with self._db_lock:
            self.database.register_table(table, transfer_table(json.dumps(dict(data))))
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
            blob = self.database.get_table(table).column_at(0)[0]
        return json.loads(blob)

    def broadcast_transfer(self, job_id: str, table: str, workers: Sequence[str]) -> dict[str, str]:
        """Ship a global transfer to workers for the next local iteration.

        Returns {worker: placed table}; under a degrading failure policy,
        workers lost during the broadcast are absent from the result so the
        caller can evict them from the flow.
        """
        with self._db_lock:
            blob = self.database.get_table(table).column_at(0)[0]
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
        """Drop a finished experiment's tables everywhere.

        A worker that cannot be reached keeps the experiment's tables — step
        outputs, broadcasts, the resident copy of its data view — until it
        answers again: its missed cleanup is kept and re-sent then.
        """
        responses = self.transport.broadcast(
            self.node_id, list(workers), "cleanup", {"job_id": job_id}
        )
        self._keep_missed_cleanups([(worker, job_id) for worker in responses.failed])
        with self._db_lock:
            for table, (_kind, owner) in list(self._global_outputs.items()):
                if owned_by(owner, job_id):
                    self.database.drop_table(table, if_exists=True)
                    del self._global_outputs[table]
        with self._counter_lock:
            for key in [k for k in self._job_counters if owned_by(k, job_id)]:
                del self._job_counters[key]

    def _keep_missed_cleanups(self, missed: Sequence[tuple[str, str]]) -> None:
        with self._cleanup_lock:
            for worker, job_id in missed:
                self._missed_cleanups.setdefault(worker, set()).add(job_id)

    def _resend_missed_cleanups(self, responses: BroadcastResult) -> None:
        """Re-send the cleanups the workers that just answered had missed."""
        with self._cleanup_lock:
            due = [
                (worker, job_id)
                for worker in self.worker_ids
                if worker in responses
                for job_id in sorted(self._missed_cleanups.pop(worker, ()))
            ]
        if not due:
            return
        results = self.transport.send_many(
            self.node_id,
            [(worker, "cleanup", {"job_id": job_id}) for worker, job_id in due],
        )
        self._keep_missed_cleanups(
            [
                request
                for request, result in zip(due, results)
                if isinstance(result, NodeUnavailableError)
            ]
        )

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
        self.transport.send_many(self.node_id, requests)


def _transfer_cells(worker: str, name: str, part: Table) -> list[str]:
    """The JSON cells of a transfer fetched from ``worker``: another node's
    table is decoded only in the one-column VARCHAR shape a transfer has."""
    types = [spec.sql_type.value for spec in part.schema]
    if types != [SQLType.VARCHAR.value]:
        raise FederationError(
            f"worker {worker!r} sent {name!r} with columns {types}, "
            "not the one VARCHAR column of a transfer"
        )
    return part.column_at(0).to_list()
