"""The Worker node: hosts sensitive hospital data, runs local steps in-engine.

Paper §2, *Worker Node*: "The Worker node hosts sensitive hospital data.  It
receives an execution request and performs local computations on the data.
The request comes as a procedural code defined by the algorithm developer and
MIP wraps it as a SQL UDF with the UDFGenerator."

Privacy rules enforced here (the paper's key design principles):

- primary data tables are never readable through the transport,
- only ``transfer`` / ``secure_transfer`` outputs — aggregates — can be
  fetched, and a ``secure_transfer`` leaves only as the payload the SMPC
  cluster imports, unless the step that wrote it was run for plain
  aggregation: the worker records the path when it runs the step, so no
  later request can change how the output may leave,
- local computations refuse data views smaller than the privacy threshold,
- a data view is scanned once per experiment and kept as a ``view`` table the
  experiment owns: no handler ships it, no response names it, and the
  experiment's cleanup drops it.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Any

from repro.engine.database import Database
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import FederationError, PrivacyThresholdError, UDFError
from repro.federation.messages import Message
from repro.federation.serialization import table_to_payload, transfer_table
from repro.observability.audit import AuditLog, owned_by
from repro.observability.trace import tracer
from repro.udfgen.decorators import udf_registry
from repro.udfgen.generator import (
    UDFPlanCache,
    generate_udf_application,
    run_udf_application,
)
from repro.udfgen.iotypes import RelationType

#: Minimum number of rows a data view must have before a local step may run.
DEFAULT_PRIVACY_THRESHOLD = 10


@dataclass
class _OutputRecord:
    table: str
    kind: str
    job_id: str
    #: How a secure transfer may leave: "smpc" (as shares only) or "plain"
    #: (fetched in the clear by the master's plain gather).
    aggregation: str = "smpc"


class Worker:
    """One hospital node: a local engine plus the message handlers."""

    def __init__(
        self,
        node_id: str,
        privacy_threshold: int = DEFAULT_PRIVACY_THRESHOLD,
    ) -> None:
        self.node_id = node_id
        self.database = Database(name=node_id)
        #: Generated definitions of the local steps this worker ran.
        self.plan_cache = UDFPlanCache()
        self.privacy_threshold = privacy_threshold
        #: Append-only audit trail of what this hospital's data was used for.
        self.audit = AuditLog(node_id)
        self._datasets: dict[str, list[str]] = {}  # data_model -> dataset codes
        self._data_tables: dict[str, str] = {}  # data_model -> table name
        self._outputs: dict[str, _OutputRecord] = {}  # table -> record
        # The transport already serializes deliveries per destination; this
        # lock additionally protects _outputs against direct concurrent use
        # (multiple transports, tests driving handlers by hand).
        self._handle_lock = threading.RLock()

    # -------------------------------------------------------------- data load

    def load_data_model(self, data_model: str, table: Table) -> None:
        """ETL entry point: register (or extend) a data-model table.

        The table must carry a ``dataset`` VARCHAR column; the worker tracks
        which dataset codes it holds so the Master can ship algorithms only
        where the data lives.
        """
        if "dataset" not in table.schema or table.schema.type_of("dataset") != SQLType.VARCHAR:
            raise FederationError("data-model tables must have a VARCHAR 'dataset' column")
        table_name = f"data_{data_model}"
        if self.database.has_table(table_name):
            existing = self.database.get_table(table_name)
            table = existing.concat(table)
            self.database.register_table(table_name, table, replace=True)
        else:
            self.database.register_table(table_name, table)
        self._data_tables[data_model] = table_name
        self._datasets[data_model] = table.column("dataset").distinct()

    def datasets(self) -> dict[str, list[str]]:
        return {model: list(codes) for model, codes in self._datasets.items()}

    # ------------------------------------------------------------- dispatcher

    def handle(self, message: Message) -> dict[str, Any]:
        handlers = {
            "ping": self._handle_ping,
            "list_datasets": self._handle_list_datasets,
            "run_udf": self._handle_run_udf,
            "put_transfer": self._handle_put_transfer,
            "get_secure_payload": self._handle_get_secure_payload,
            "fetch_table": self._handle_fetch_table,
            "cleanup": self._handle_cleanup,
        }
        handler = handlers.get(message.kind)
        if handler is None:
            raise FederationError(f"worker cannot handle message kind {message.kind!r}")
        with tracer.span("worker.handle", node=self.node_id, kind=message.kind):
            with self._handle_lock:
                return handler(dict(message.payload))

    # --------------------------------------------------------------- handlers

    def _handle_ping(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"node_id": self.node_id, "status": "up"}

    def _handle_list_datasets(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"datasets": self.datasets()}

    def _handle_run_udf(self, payload: dict[str, Any]) -> dict[str, Any]:
        job_id = payload["job_id"]
        udf_name = payload["udf_name"]
        arguments: dict[str, Any] = payload["arguments"]
        aggregation = payload.get("aggregation", "smpc")
        if aggregation not in ("smpc", "plain"):
            raise FederationError(f"unknown aggregation path {aggregation!r}")
        spec = udf_registry.get(udf_name)
        bound: dict[str, Any] = {}
        for pname, iotype in spec.inputs:
            if pname not in arguments:
                raise UDFError(f"missing argument {pname!r} for UDF {udf_name!r}")
            bound[pname] = self._bind_argument(pname, iotype, arguments[pname], job_id)
        application = generate_udf_application(
            spec, f"{job_id}_{self.node_id}", bound, self.plan_cache
        )
        run_udf_application(self.database, application)
        outputs = []
        for table, iotype in zip(application.output_tables, application.output_kinds):
            kind = iotype.kind
            self._outputs[table] = _OutputRecord(table, kind, job_id, aggregation)
            outputs.append({"table": table, "kind": kind})
        return {"outputs": outputs}

    def _bind_argument(
        self, pname: str, iotype: Any, spec: dict[str, Any], job_id: str
    ) -> Any:
        arg_kind = spec.get("kind")
        if arg_kind == "literal":
            return spec["value"]
        if arg_kind == "table":
            name = spec["name"]
            record = self._outputs.get(name)
            # A view binds through its query: that is where the read is
            # audited and the privacy threshold checked.
            if record is None or record.kind == "view":
                raise FederationError(
                    f"worker {self.node_id!r}: table {name!r} is not a known step output"
                )
            return name
        if arg_kind == "view":
            if not isinstance(iotype, RelationType):
                raise UDFError(f"argument {pname!r}: data views bind only to relations")
            # The view belongs to the experiment, not the step: the first
            # step to bind a query scans the data, every later step reads
            # that snapshot, and the experiment's cleanup drops it.
            owner = spec.get("experiment", job_id)
            digest = hashlib.sha1(f"{owner}\0{spec['query']}".encode()).hexdigest()
            name = f"view_{digest[:16]}"
            resident = name in self._outputs
            if resident:
                view = self.database.get_table(name)
            else:
                scanned = self.database.query(spec["query"])
                # Its own table even when the scan kept every row and column
                # of the data table: what the steps cache in the view's memo
                # must go with the view.
                view = Table(scanned.schema, scanned.columns)
            self.audit.record(
                "dataset_read",
                job_id=job_id,
                rows=view.num_rows,
                variables=list(spec.get("variables", ())),
                datasets=list(spec.get("datasets", ())),
            )
            if view.num_rows < self.privacy_threshold:
                self.audit.record(
                    "privacy_threshold_rejected",
                    job_id=job_id,
                    rows=view.num_rows,
                    threshold=self.privacy_threshold,
                )
                raise PrivacyThresholdError(
                    f"worker {self.node_id!r}: data view has {view.num_rows} rows, "
                    f"below the privacy threshold of {self.privacy_threshold}"
                )
            self.audit.record(
                "rows_contributed", job_id=job_id, rows=view.num_rows
            )
            if not resident:
                self.database.register_table(name, view)
                self._outputs[name] = _OutputRecord(name, "view", owner)
            return name
        raise FederationError(f"unknown argument kind {arg_kind!r}")

    def _handle_put_transfer(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Receive a broadcast global transfer (model parameters and the like).

        Idempotent under at-least-once delivery: a replay carrying the same
        table name and the same blob (a master retrying a broadcast whose
        acknowledgement was lost) is acknowledged without re-writing; a
        *different* blob under an existing name is still an error.
        """
        job_id = payload["job_id"]
        table = payload["table"]
        blob = payload["blob"]
        if self.database.has_table(table):
            record = self._outputs.get(table)
            if record is not None and record.kind == "transfer":
                if self.database.get_table(table).column_at(0)[0] == str(blob):
                    return {"table": table, "duplicate": True}
            raise FederationError(f"worker {self.node_id!r}: table {table!r} already exists")
        self.database.register_table(table, transfer_table(str(blob)))
        self._outputs[table] = _OutputRecord(table, "transfer", job_id)
        self.audit.record("transfer_received", job_id=job_id, table=table)
        return {"table": table}

    def _handle_get_secure_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        table = payload["table"]
        record = self._require_output(table)
        if record.kind != "secure_transfer":
            raise FederationError(
                f"worker {self.node_id!r}: table {table!r} is not a secure transfer"
            )
        blob = self.database.get_table(table).column_at(0)[0]
        self.audit.record(
            "aggregate_shared", job_id=record.job_id, table=table, path="smpc"
        )
        return {"payload": json.loads(blob)}

    def _handle_fetch_table(self, payload: dict[str, Any]) -> dict[str, Any]:
        """A transfer fetched by the master's plain gather (the paper's
        non-secure remote/merge path)."""
        table = payload["table"]
        record = self._require_output(table)
        if record.kind not in ("transfer", "secure_transfer"):
            raise FederationError(
                f"worker {self.node_id!r}: remote access to {record.kind!r} table "
                f"{table!r} denied — the remote/merge path ships transfers only"
            )
        if record.kind == "secure_transfer" and record.aggregation != "plain":
            raise FederationError(
                f"worker {self.node_id!r}: output {table!r} is a secure transfer of an "
                "SMPC step; it leaves only as shares the SMPC cluster imports"
            )
        self.audit.record(
            "aggregate_shared", job_id=record.job_id, table=table, path="remote"
        )
        return {"table": table_to_payload(self.database.get_table(table))}

    def _handle_cleanup(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Drop step tables: by owning job, or an explicit table list (the
        arm :meth:`Master.drop_worker_tables` sends to)."""
        if "job_id" not in payload:
            dropped = []
            for table in payload.get("tables", ()):
                if table in self._outputs:
                    self.database.drop_table(table, if_exists=True)
                    del self._outputs[table]
                    dropped.append(table)
            return {"dropped": dropped}
        job_id = payload["job_id"]
        dropped = []
        for table, record in list(self._outputs.items()):
            if owned_by(record.job_id, job_id):
                self.database.drop_table(table, if_exists=True)
                del self._outputs[table]
                dropped.append(table)
        return {"dropped": dropped}

    def _require_output(self, table: str) -> _OutputRecord:
        record = self._outputs.get(table)
        if record is None:
            raise FederationError(
                f"worker {self.node_id!r}: table {table!r} is not an exposed step output"
            )
        return record
