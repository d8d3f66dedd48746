"""Whole-algorithm digests: the same-behaviour oracle for refactors.

Every demo request runs once per aggregation path — plain, Shamir SMPC and
full-threshold SMPC — on a fresh copy of the golden-plan federation (three
hospitals, 60 rows each, pinned seeds).  Two more rows run the dashboard
request, ``descriptive_stats`` over every REAL variable of the dementia
data model, under each secure scheme: it builds the longest share vectors
of any request here.

A row's digest is the sha256 of the result JSON, the experiment's
telemetry meters, its audit-event counts per node and, for secure rows, the
final state of the SMPC protocol's and the dealer's RNGs.  A refactor that
means to keep behaviour keeps every digest; an intended change shows up as
a reviewed diff of ``tests/golden_digests.json``.

Regenerate after an *intentional* change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/core/test_golden_digests.py
"""

import collections
import hashlib
import json
import os
import pathlib

import pytest

from repro.api.demo import DEMO_REQUESTS, demo_request
from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentStatus
from repro.data.cdes import dementia_data_model
from repro.engine.types import SQLType
from repro.federation.controller import FederationConfig, create_federation

from tests.core.test_golden_plans import DATASETS, golden_worker_data

import repro.algorithms  # noqa: F401

TABLE = pathlib.Path(__file__).resolve().parent.parent / "golden_digests.json"
MODES = ("plain", "shamir", "full_threshold")
SECURE = MODES[1:]

DASHBOARD = {
    "y": tuple(
        code
        for code, cde in dementia_data_model().cdes.items()
        if cde.sql_type is SQLType.REAL
    ),
    "x": (),
    "parameters": {},
}

ROWS = {
    **{
        f"{algorithm}-{mode}": (algorithm, mode)
        for algorithm in sorted(DEMO_REQUESTS)
        for mode in MODES
    },
    **{f"dashboard-{scheme}": ("dashboard", scheme) for scheme in SECURE},
}


def row_digest(name: str, mode: str) -> str:
    if name == "dashboard":
        algorithm, demo = "descriptive_stats", DASHBOARD
    else:
        algorithm, demo = name, demo_request(name)
    scheme = "shamir" if mode == "plain" else mode
    federation = create_federation(
        golden_worker_data(),
        FederationConfig(smpc_nodes=3, smpc_scheme=scheme, seed=0),
    )
    engine = ExperimentEngine(
        federation, aggregation="plain" if mode == "plain" else "smpc"
    )
    try:
        outcome = engine.run(
            ExperimentRequest(
                algorithm=algorithm,
                data_model="dementia",
                datasets=DATASETS,
                y=demo["y"],
                x=demo["x"],
                parameters=demo["parameters"],
            )
        )
    finally:
        engine.shutdown()
        federation.shutdown()
    assert outcome.status is ExperimentStatus.SUCCESS, outcome.error
    record = {
        "result": json.dumps(outcome.result, sort_keys=True, default=str),
        "telemetry": outcome.telemetry.to_dict(),
        "audit": sorted(
            collections.Counter(
                f"{event['node']}:{event['event']}" for event in outcome.audit
            ).items()
        ),
    }
    if mode in SECURE:
        protocol = federation.smpc_cluster.protocol
        record["protocol_rng"] = repr(protocol._rng.getstate())
        record["dealer_rng"] = repr(protocol.dealer.rng.getstate())
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def pinned() -> dict[str, str]:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_golden_digest(row):
    digest = row_digest(*ROWS[row])
    table = pinned()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        table[row] = digest
        TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        return
    assert row in table, f"no digest for {row!r}; regenerate with REPRO_UPDATE_GOLDENS=1"
    assert table[row] == digest, (
        f"{row!r} changed behaviour; if intentional, regenerate with "
        "REPRO_UPDATE_GOLDENS=1"
    )


def test_no_stale_digests():
    """Every pinned row is still a row of the table."""
    stale = set(pinned()) - set(ROWS)
    assert not stale, f"stale digests: {sorted(stale)}"
