"""Queue-vs-seed regression: the refactor must not change a single byte.

The seed engine ran experiments synchronously in the caller's thread and
measured telemetry as a before/after diff of the *global* transport and
SMPC counters.  This test reconstructs that exact reference path inline and
asserts that the same request with the same seed and the same pinned
experiment id, executed through the new queue at pool size 1, produces

- a byte-identical result payload,
- an identical audit trail, node by node (modulo wall-clock timestamps and
  sequence numbers, which encode nothing about the computation),
- identical telemetry.
"""

from __future__ import annotations

import json

import repro.algorithms  # noqa: F401
from repro.core.experiment import (
    ExperimentEngine,
    ExperimentRequest,
    ExperimentStatus,
    ExperimentTelemetry,
)
from repro.core.runner import ExperimentRunner
from repro.observability.audit import merged_events
from repro.observability.trace import tracer

from tests.concurrency.test_stress import DATASETS, build_federation

EXPERIMENT_ID = "exp_regression_e5"


def e5_request() -> ExperimentRequest:
    return ExperimentRequest(
        algorithm="linear_regression", data_model="dementia",
        datasets=DATASETS, y=("lefthippocampus",), x=("agevalue",),
    )


def run_seed_style(federation, request, experiment_id):
    """The pre-queue engine's run loop, reproduced verbatim: synchronous
    execution with global before/after counter telemetry."""

    def usage_snapshot():
        stats = federation.transport.stats
        cluster = federation.smpc_cluster
        rounds = cluster.communication.rounds if cluster else 0
        elements = cluster.communication.elements if cluster else 0
        return (stats.messages, stats.bytes_sent, stats.simulated_seconds,
                rounds, elements)

    runner = ExperimentRunner(federation)
    master_audit = federation.master.audit
    before = usage_snapshot()
    master_audit.record(
        "experiment_started",
        job_id=experiment_id,
        algorithm=request.algorithm,
        data_model=request.data_model,
        datasets=sorted(request.datasets),
    )
    with tracer.span("experiment", experiment=experiment_id,
                     algorithm=request.algorithm):
        result_data, workers = runner.execute(request, experiment_id)
    master_audit.record(
        "experiment_finished", job_id=experiment_id, status="success",
        elapsed_seconds=0.0,
    )
    after = usage_snapshot()
    telemetry = ExperimentTelemetry(
        messages=after[0] - before[0],
        bytes_sent=after[1] - before[1],
        simulated_network_seconds=after[2] - before[2],
        smpc_rounds=after[3] - before[3],
        smpc_elements=after[4] - before[4],
    )
    audit = tuple(merged_events(federation.audit_logs(), job_id=experiment_id))
    return result_data, workers, telemetry, audit


def normalize_audit(events):
    """Each node's events in that node's own ``seq`` order, with wall-clock
    and sequence fields stripped; every event and every detail is kept.

    Workers record concurrently (they read their data views in parallel),
    so the cross-node order of a trail, which follows the wall clock,
    differs from run to run.  Within one node the order is the
    computation's.  Equal per-node sequences imply equal multisets of
    events.
    """
    by_node = {}
    for entry in sorted(events, key=lambda e: (e["node"], e["seq"])):
        details = {
            k: v for k, v in entry["details"].items() if k != "elapsed_seconds"
        }
        by_node.setdefault(entry["node"], []).append(
            (entry["event"], entry["job_id"], details)
        )
    return by_node


class TestSeedEquivalence:
    def test_queue_matches_seed_engine_byte_for_byte(self):
        request = e5_request()
        reference_federation, queue_federation = build_federation(), build_federation()
        try:
            reference_data, reference_workers, reference_telemetry, reference_audit = (
                run_seed_style(reference_federation, request, EXPERIMENT_ID)
            )

            engine = ExperimentEngine(queue_federation, max_concurrent=1)
            try:
                engine.submit(request, experiment_id=EXPERIMENT_ID)
                result = engine.wait(EXPERIMENT_ID, timeout=300)
            finally:
                engine.shutdown(wait=False)

            assert result.status is ExperimentStatus.SUCCESS, result.error
            assert result.workers == reference_workers
            # Byte-identical result payload.
            assert (
                json.dumps(result.result, sort_keys=True, default=str)
                == json.dumps(reference_data, sort_keys=True, default=str)
            )
            # Identical audit trail, node by node, modulo timestamps/sequence numbers.
            assert normalize_audit(result.audit) == normalize_audit(reference_audit)
            # Identical telemetry: the per-job meters must equal the global diff.
            assert result.telemetry == reference_telemetry
        finally:
            reference_federation.shutdown()
            queue_federation.shutdown()
