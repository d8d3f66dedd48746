"""Concurrency stress: mixed algorithms through the queue at pool 4.

The acceptance bar for per-job resource attribution: eight experiments of
four different algorithms running four-at-a-time must each report *exactly*
the telemetry they report when run alone on an identically-seeded
federation — zero cross-job leakage in messages, bytes, simulated network
time, SMPC rounds or SMPC elements.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.algorithms  # noqa: F401
from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentStatus
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.errors import SpecificationError
from repro.federation.controller import FederationConfig, create_federation


STRESS_SEED = 4040
POOL_SIZE = 4


def build_federation(seed: int = STRESS_SEED, **config_overrides):
    worker_data = {
        "hospital_a": {"dementia": generate_cohort(CohortSpec("edsd", 120, seed=11))},
        "hospital_b": {"dementia": generate_cohort(CohortSpec("adni", 120, seed=22))},
        "hospital_c": {"dementia": generate_cohort(CohortSpec("ppmi", 120, seed=33))},
    }
    return create_federation(
        worker_data,
        FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=seed,
                         **config_overrides),
    )


DATASETS = ("edsd", "adni", "ppmi")


def mixed_requests() -> list[tuple[str, ExperimentRequest]]:
    """Eight experiments over four algorithm flows, ids pinned for byte
    stability (equal length, fixed content)."""
    archetypes = [
        ExperimentRequest(
            algorithm="linear_regression", data_model="dementia",
            datasets=DATASETS, y=("lefthippocampus",), x=("agevalue",),
        ),
        ExperimentRequest(
            algorithm="pearson_correlation", data_model="dementia",
            datasets=DATASETS, y=("lefthippocampus", "righthippocampus"),
        ),
        ExperimentRequest(
            algorithm="descriptive_stats", data_model="dementia",
            datasets=DATASETS, y=("lefthippocampus",),
        ),
        ExperimentRequest(
            algorithm="ttest_onesample", data_model="dementia",
            datasets=DATASETS, y=("p_tau",), parameters={"mu": 50.0},
        ),
    ]
    return [
        (f"exp_stress_{index}", archetypes[index % len(archetypes)])
        for index in range(8)
    ]


class TestStressAttribution:
    def test_eight_mixed_experiments_at_pool_four_no_leakage(self):
        # Solo baselines: each request alone on its own identically-seeded
        # federation, with the exact same pinned experiment id.
        solo_telemetry = {}
        solo_results = {}
        for experiment_id, request in mixed_requests():
            engine = ExperimentEngine(build_federation())
            try:
                engine.submit(request, experiment_id=experiment_id)
                result = engine.wait(experiment_id, timeout=300)
                assert result.status is ExperimentStatus.SUCCESS, result.error
                solo_telemetry[experiment_id] = result.telemetry
                solo_results[experiment_id] = json.dumps(
                    result.result, sort_keys=True, default=str
                )
            finally:
                engine.shutdown(wait=False)

        # The stress run: all eight queued at once, four executors.
        engine = ExperimentEngine(build_federation(), max_concurrent=POOL_SIZE)
        try:
            for experiment_id, request in mixed_requests():
                engine.submit(request, experiment_id=experiment_id)
            leaks = []
            for experiment_id, _request in mixed_requests():
                result = engine.wait(experiment_id, timeout=300)
                assert result.status is ExperimentStatus.SUCCESS, result.error
                if result.telemetry != solo_telemetry[experiment_id]:
                    leaks.append(
                        (experiment_id, solo_telemetry[experiment_id], result.telemetry)
                    )
                # Determinism: same seeds, same ids — same numbers.
                assert (
                    json.dumps(result.result, sort_keys=True, default=str)
                    == solo_results[experiment_id]
                )
            assert not leaks, f"cross-job telemetry leakage detected: {leaks}"
            stats = engine.queue.stats()
            assert stats["succeeded_total"] == 8
            assert stats["failed_total"] == 0
        finally:
            engine.shutdown(wait=False)


class TestQueueThroughput:
    def test_pool_four_beats_pool_one(self):
        """Acceptance: >= 1.5x experiments/sec at pool 4 vs pool 1 on the E5
        linear-regression flow over a sleep-latency transport."""
        latency_s = 0.02
        n_experiments = 8

        def run_batch(pool_size: int) -> float:
            federation = build_federation(
                sleep_latency=True, latency_seconds=latency_s
            )
            engine = ExperimentEngine(
                federation, aggregation="plain", max_concurrent=pool_size
            )
            request = ExperimentRequest(
                algorithm="linear_regression", data_model="dementia",
                datasets=DATASETS, y=("lefthippocampus",), x=("agevalue",),
            )
            try:
                t0 = time.perf_counter()
                ids = [engine.submit(request) for _ in range(n_experiments)]
                for job_id in ids:
                    result = engine.wait(job_id, timeout=600)
                    assert result.status is ExperimentStatus.SUCCESS, result.error
                return time.perf_counter() - t0
            finally:
                engine.shutdown(wait=False)

        sequential_s = run_batch(1)
        parallel_s = run_batch(POOL_SIZE)
        throughput_1 = n_experiments / sequential_s
        throughput_4 = n_experiments / parallel_s
        speedup = throughput_4 / throughput_1
        assert speedup >= 1.5, (
            f"pool-4 throughput speedup {speedup:.2f}x is below the 1.5x bar"
        )


class TestPrefixIds:
    """An experiment id that extends another at an ``_`` (``x`` and
    ``x_y``) names a different experiment: finishing one leaves the other's
    tables, SMPC meters and audit events alone."""

    IDS = ("x", "x_y")

    @staticmethod
    def request() -> ExperimentRequest:
        return ExperimentRequest(
            algorithm="linear_regression", data_model="dementia",
            datasets=DATASETS, y=("lefthippocampus",), x=("agevalue",),
        )

    def test_x_and_x_y_in_a_pool_of_two_both_return_their_solo_results(self):
        solo = {}
        for experiment_id in self.IDS:
            engine = ExperimentEngine(build_federation())
            try:
                engine.submit(self.request(), experiment_id=experiment_id)
                solo[experiment_id] = engine.wait(experiment_id, timeout=300)
            finally:
                engine.shutdown(wait=False)

        # x_y has computed and is about to clean up when x runs from start
        # to finish beside it.
        federation = build_federation()
        master = federation.master
        cleanup = master.cleanup
        paused, resume = threading.Event(), threading.Event()

        def gated_cleanup(job_id, workers):
            if job_id == "x_y":
                paused.set()
                assert resume.wait(timeout=300)
            return cleanup(job_id, workers)

        master.cleanup = gated_cleanup
        engine = ExperimentEngine(federation, max_concurrent=2)
        try:
            engine.submit(self.request(), experiment_id="x_y")
            assert paused.wait(timeout=300)
            engine.submit(self.request(), experiment_id="x")
            mixed = {"x": engine.wait("x", timeout=300)}
            resume.set()
            mixed["x_y"] = engine.wait("x_y", timeout=300)
        finally:
            resume.set()
            engine.shutdown(wait=False)
        for experiment_id in self.IDS:
            alone, beside = solo[experiment_id], mixed[experiment_id]
            assert beside.status is ExperimentStatus.SUCCESS, beside.error
            assert json.dumps(beside.result, sort_keys=True, default=str) == json.dumps(
                alone.result, sort_keys=True, default=str
            )
            assert beside.telemetry == alone.telemetry, experiment_id
            assert len(beside.audit) == len(alone.audit), experiment_id

    @pytest.mark.parametrize("experiment_id", ["x_s1", "x_read2", "x_bcast", "a_s3_b"])
    def test_an_id_that_reads_as_a_step_id_is_refused(self, experiment_id):
        engine = ExperimentEngine(build_federation())
        try:
            with pytest.raises(SpecificationError):
                engine.submit(self.request(), experiment_id=experiment_id)
        finally:
            engine.shutdown(wait=False)
