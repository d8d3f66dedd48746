"""Chaos runs: representative algorithms under seeded drop/down schedules.

The contract (ISSUE acceptance criterion): under a lossy transport every
experiment must either return a quorum result matching the clean oracle or
fail with a typed :class:`FederationError` subclass — never hang (the
simulated transport is synchronous, so a hang would be a test timeout) and
never return a silently wrong aggregate.
"""

from __future__ import annotations

import pytest

from repro.federation.policy import FailurePolicy

from tests.chaos.harness import (
    build_chaos_federation,
    chaos_worker_data,
    classify_outcome,
    run_experiment,
)

CASES = [
    ("linear_regression", ("lefthippocampus",), ("agevalue", "alzheimerbroadcategory"), {}),
    ("logistic_regression", ("converted_ad",), ("p_tau", "lefthippocampus"), {}),
    ("kmeans", ("ab_42", "p_tau"), (), {"k": 2, "seed": 3}),
]
CASE_IDS = [case[0] for case in CASES]

DEGRADE = FailurePolicy(retries=5, on_worker_loss="degrade", min_workers=1)


@pytest.fixture(scope="module")
def worker_data():
    return chaos_worker_data()


@pytest.fixture(scope="module")
def clean_results(worker_data):
    """Oracle: every case's result on a lossless federation."""
    federation = build_chaos_federation(
        worker_data, drop_probability=0.0, seed=1, policy=FailurePolicy()
    )
    oracle = {}
    for algorithm, y, x, parameters in CASES:
        result = run_experiment(federation, algorithm, y, x, parameters)
        assert result.status.value == "success", result.error
        oracle[algorithm] = result.result
    return oracle


@pytest.mark.parametrize("algorithm, y, x, parameters", CASES, ids=CASE_IDS)
def test_light_drops_with_retries_match_clean_result(
    worker_data, clean_results, chaos_seed, algorithm, y, x, parameters
):
    """A 10%-drop schedule is absorbed entirely by retries: the run succeeds
    and the result is bit-for-bit the clean one."""
    federation = build_chaos_federation(
        worker_data, drop_probability=0.10, seed=chaos_seed, policy=DEGRADE
    )
    result = run_experiment(federation, algorithm, y, x, parameters)
    stats = federation.transport.stats
    if stats.failed_sends == 0:
        # No send was permanently lost, so no worker was evicted and the
        # quorum result must equal the oracle exactly.
        outcome = classify_outcome(result, oracle=clean_results[algorithm])
        assert outcome == "success", result.error
    else:
        # A send exhausted its retry budget under this seed (rare at 10%):
        # the run may degrade or abort, but only along typed paths.
        classify_outcome(result)


@pytest.mark.parametrize("algorithm, y, x, parameters", CASES, ids=CASE_IDS)
def test_heavy_drops_fail_typed_or_degrade(
    worker_data, chaos_seed, algorithm, y, x, parameters
):
    """At 35% drops with a single retry, losses reach the policy layer: each
    run must still terminate in a typed failure or a (possibly degraded)
    success — across several seeds."""
    policy = FailurePolicy(retries=1, on_worker_loss="degrade", min_workers=2)
    for offset in range(3):
        federation = build_chaos_federation(
            worker_data,
            drop_probability=0.35,
            seed=chaos_seed + offset,
            policy=policy,
        )
        result = run_experiment(federation, algorithm, y, x, parameters)
        classify_outcome(result)


def test_retries_are_exercised_and_visible(worker_data, clean_results, chaos_seed):
    """Across all three algorithms on one lossy transport, the 10% schedule
    must hit the retry path and surface it in the stats.  (A single small
    run can legitimately draw zero drops for some seeds; ~hundreds of
    messages cannot.)"""
    federation = build_chaos_federation(
        worker_data, drop_probability=0.10, seed=chaos_seed, policy=DEGRADE
    )
    for algorithm, y, x, parameters in CASES:
        result = run_experiment(federation, algorithm, y, x, parameters)
        if federation.transport.stats.failed_sends == 0:
            classify_outcome(result, oracle=clean_results[algorithm])
        else:
            classify_outcome(result)
    assert federation.transport.stats.retries > 0


def test_fail_policy_aborts_on_first_loss(worker_data, chaos_seed):
    """The legacy contract: under ``on_worker_loss="fail"`` a lossy run
    either survives on retries alone or aborts with a typed error."""
    policy = FailurePolicy(retries=0, on_worker_loss="fail")
    federation = build_chaos_federation(
        worker_data, drop_probability=0.5, seed=chaos_seed, policy=policy
    )
    result = run_experiment(
        federation, "linear_regression", ("lefthippocampus",), ("agevalue",)
    )
    outcome = classify_outcome(result)
    if outcome == "typed-failure":
        assert federation.transport.stats.failed_sends > 0


def test_smpc_path_survives_light_drops(worker_data, clean_results, chaos_seed):
    """The secure aggregation path under drops: retries keep the share
    imports complete, and the SMPC result equals the clean plain result."""
    federation = build_chaos_federation(
        worker_data, drop_probability=0.10, seed=chaos_seed, policy=DEGRADE
    )
    result = run_experiment(
        federation,
        "linear_regression",
        ("lefthippocampus",),
        ("agevalue", "alzheimerbroadcategory"),
        aggregation="smpc",
    )
    if federation.transport.stats.failed_sends == 0:
        outcome = classify_outcome(result, oracle=clean_results["linear_regression"])
        assert outcome == "success", result.error
    else:
        classify_outcome(result)


def test_chaos_runs_are_deterministic(worker_data, chaos_seed):
    """Same seed, same schedule: two independent federations produce the
    identical outcome, retry count and failure count."""
    outcomes = []
    for _ in range(2):
        federation = build_chaos_federation(
            worker_data, drop_probability=0.25, seed=chaos_seed, policy=DEGRADE
        )
        result = run_experiment(
            federation, "linear_regression", ("lefthippocampus",), ("agevalue",)
        )
        stats = federation.transport.stats
        outcomes.append(
            (result.status.value, result.error, result.result,
             stats.retries, stats.failed_sends, stats.messages)
        )
    assert outcomes[0] == outcomes[1]
