"""Whole-algorithm digests: the same-behaviour oracle for refactors.

Every demo request runs once per aggregation path — plain, Shamir SMPC and
full-threshold SMPC — on a fresh copy of the golden-plan federation (three
hospitals, 60 rows each, pinned seeds).  Two more rows run the dashboard
request, ``descriptive_stats`` over every REAL variable of the dementia
data model, under each secure scheme: it builds the longest share vectors
of any request here.

A row pins two sha256 digests.  ``result`` covers the result JSON alone:
what the analyst sees.  ``trace`` covers how the run got there: the
experiment's telemetry meters, its audit-event counts per node and, for
secure rows, the final state of the SMPC protocol's and the dealer's RNGs.
A refactor that means to keep behaviour keeps both; one that only changes
the work a flow does (fewer steps, fewer messages) keeps every ``result``
and moves ``trace``.  An intended change shows up as a reviewed diff of
``tests/golden_digests.json``.

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


def row_digests(name: str, mode: str) -> dict[str, str]:
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
    trace = {
        "telemetry": outcome.telemetry.to_dict(),
        "audit": sorted(
            collections.Counter(
                f"{event['node']}:{event['event']}" for event in outcome.audit
            ).items()
        ),
    }
    if mode in SECURE:
        protocol = federation.smpc_cluster.protocol
        trace["protocol_rng"] = repr(protocol._rng.getstate())
        trace["dealer_rng"] = repr(protocol.dealer.rng.getstate())
    return {
        "result": _sha256(json.dumps(outcome.result, sort_keys=True, default=str)),
        "trace": _sha256(json.dumps(trace, sort_keys=True)),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pinned() -> dict[str, dict[str, str]]:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_golden_digest(row):
    digests = row_digests(*ROWS[row])
    table = pinned()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        table[row] = digests
        TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        return
    assert row in table, f"no digest for {row!r}; regenerate with REPRO_UPDATE_GOLDENS=1"
    assert table[row]["result"] == digests["result"], (
        f"{row!r} returns a different result; if intentional, regenerate with "
        "REPRO_UPDATE_GOLDENS=1"
    )
    assert table[row]["trace"] == digests["trace"], (
        f"{row!r} returns the same result by different work (telemetry, audit "
        "or RNG state); if intentional, regenerate with REPRO_UPDATE_GOLDENS=1"
    )


def test_no_stale_digests():
    """Every pinned row is still a row of the table."""
    stale = set(pinned()) - set(ROWS)
    assert not stale, f"stale digests: {sorted(stale)}"
