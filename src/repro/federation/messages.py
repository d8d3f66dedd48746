"""Typed messages exchanged between Master, Workers, and the SMPC cluster."""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class Message:
    """One request on the wire.

    ``kind`` selects the handler on the receiving node; ``payload`` carries
    the arguments.  Responses are plain payload dicts.
    """

    sender: str
    receiver: str
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)


def new_job_id(prefix: str = "job") -> str:
    """A global unique identifier for one computation (paper §2, SMPC)."""
    return f"{prefix}_{uuid.uuid4().hex[:12]}"


#: Message kinds understood by Worker nodes.  Data loading is deliberately
#: absent: ETL happens locally at the hospital (data never arrives over the
#: transport), via :meth:`repro.federation.worker.Worker.load_data_model`.
WORKER_KINDS = (
    "ping",
    "list_datasets",
    "run_udf",
    "put_transfer",
    "get_secure_payload",
    "fetch_table",
    "cleanup",
)
