"""The degrade correctness oracle (satellite 3).

If a worker is evicted before contributing anything, degrading must be
*exactly* equivalent to never having invited that worker: an algorithm run
on N workers with zero failures equals the same run on N+1 workers where the
extra worker is down and gets evicted on the first fan-out.
"""

from __future__ import annotations

import pytest

from repro.data.cohorts import CohortSpec, generate_cohort
from repro.errors import QuorumError
from repro.federation.policy import FailurePolicy

from tests.chaos.harness import (
    assert_close,
    build_chaos_federation,
    run_algorithm_on_context,
    run_experiment,
)

CASES = [
    ("linear_regression", ("lefthippocampus",), ("agevalue", "alzheimerbroadcategory"), {}),
    ("ttest_independent", ("lefthippocampus",), ("gender",), {}),
    ("kmeans", ("ab_42", "p_tau"), (), {"k": 2, "seed": 3}),
]
CASE_IDS = [case[0] for case in CASES]

DEGRADE = FailurePolicy(retries=1, on_worker_loss="degrade", min_workers=1)

ALL_WORKERS = {"h1": ["edsd"], "h2": ["adni"], "h3": ["ppmi"]}


def three_worker_data():
    return {
        "h1": {"dementia": generate_cohort(CohortSpec("edsd", 140, seed=77))},
        "h2": {"dementia": generate_cohort(CohortSpec("adni", 120, seed=78))},
        "h3": {"dementia": generate_cohort(CohortSpec("ppmi", 100, seed=79))},
    }


def build(policy=DEGRADE):
    return build_chaos_federation(
        three_worker_data(), drop_probability=0.0, seed=5, policy=policy
    )


@pytest.mark.parametrize("algorithm, y, x, parameters", CASES, ids=CASE_IDS)
def test_preflight_eviction_equals_clean_run_without_worker(
    algorithm, y, x, parameters
):
    """Clean 2-worker result == 3-worker run with the third worker down."""
    federation = build()
    clean = run_experiment(
        federation, algorithm, y, x, parameters, datasets=("edsd", "adni")
    )
    assert clean.status.value == "success", clean.error

    federation.transport.set_down("h3", True)
    degraded, context = run_algorithm_on_context(
        federation, ALL_WORKERS, algorithm, y, x, parameters
    )
    assert list(context.evicted) == ["h3"]
    assert context.workers == ["h1", "h2"]
    assert_close(clean.result, degraded)


def test_eviction_is_visible_in_health_and_stats():
    federation = build(
        FailurePolicy(
            retries=1, on_worker_loss="degrade", min_workers=1, failure_threshold=1
        )
    )
    federation.transport.set_down("h3", True)
    _result, context = run_algorithm_on_context(
        federation, ALL_WORKERS, "linear_regression", ("lefthippocampus",), ("agevalue",)
    )
    assert "h3" in context.evicted
    stats = federation.transport.stats
    assert stats.failed_sends > 0
    assert stats.retries > 0  # the doomed sends were retried before eviction
    assert federation.master.health.is_quarantined("h3")
    assert federation.master.health.evictions >= 1


def test_quorum_violation_raises_instead_of_degrading_further():
    """With min_workers=2, losing two of three workers is a typed abort."""
    federation = build(
        FailurePolicy(retries=0, on_worker_loss="degrade", min_workers=2)
    )
    federation.transport.set_down("h2", True)
    federation.transport.set_down("h3", True)
    with pytest.raises(QuorumError):
        run_algorithm_on_context(
            federation, ALL_WORKERS, "linear_regression",
            ("lefthippocampus",), ("agevalue",),
        )


def test_fail_policy_never_evicts():
    """Under on_worker_loss="fail" the same down worker aborts the flow."""
    federation = build(FailurePolicy(retries=0, on_worker_loss="fail"))
    federation.transport.set_down("h3", True)
    with pytest.raises(Exception) as excinfo:
        run_algorithm_on_context(
            federation, ALL_WORKERS, "linear_regression",
            ("lefthippocampus",), ("agevalue",),
        )
    from repro.errors import NodeUnavailableError

    assert isinstance(excinfo.value, NodeUnavailableError)


def test_secure_path_reshapes_around_evicted_worker():
    """SMPC aggregation with a pre-flight-evicted worker equals the clean
    secure run on the survivors (the share re-split path end to end)."""
    federation = build()
    clean = run_experiment(
        federation,
        "linear_regression",
        ("lefthippocampus",),
        ("agevalue",),
        datasets=("edsd", "adni"),
        aggregation="smpc",
    )
    assert clean.status.value == "success", clean.error

    federation.transport.set_down("h3", True)
    degraded, context = run_algorithm_on_context(
        federation,
        ALL_WORKERS,
        "linear_regression",
        ("lefthippocampus",),
        ("agevalue",),
        aggregation="smpc",
    )
    assert list(context.evicted) == ["h3"]
    assert_close(clean.result, degraded)



def test_worker_lost_at_the_share_fetch_is_evicted():
    """A worker that ran its local step but is unreachable while the master
    fetches its secret shares is evicted there, even though it is back for
    the flow's later steps: the result names it, equals the secure run on
    the survivors' pooled data, and the eviction is audited."""
    x = ("agevalue", "alzheimerbroadcategory")  # two secure aggregates
    federation = build()
    reference = run_experiment(
        federation, "linear_regression", ("lefthippocampus",), x,
        datasets=("edsd", "adni"), aggregation="smpc",
    )
    assert reference.status.value == "success", reference.error

    gather = federation.master.gather_transfers_secure
    fetches: list[str] = []

    def gather_with_h3_lost_once(job_id, worker_tables, noise=None):
        first = not fetches
        fetches.append(job_id)
        if first:
            assert "h3" in worker_tables  # h3 did run the local step
            federation.transport.set_down("h3", True)
        try:
            return gather(job_id, worker_tables, noise=noise)
        finally:
            federation.transport.set_down("h3", False)

    federation.master.gather_transfers_secure = gather_with_h3_lost_once
    degraded = run_experiment(
        federation, "linear_regression", ("lefthippocampus",), x,
        aggregation="smpc",
    )
    assert degraded.status.value == "success", degraded.error
    assert len(fetches) == 2
    assert degraded.evicted == ("h3",)
    assert_close(reference.result, degraded.result)
    (evicted,) = [e for e in degraded.audit if e["event"] == "worker_evicted"]
    assert evicted["job_id"] == fetches[0]
    assert evicted["details"]["workers"] == ["h3"]
