"""The SMPC cluster facade."""

import numpy as np
import pytest

from repro.errors import SMPCError
from repro.smpc.cluster import NoiseSpec, SMPCCluster


def two_worker_job(cluster, job="job"):
    cluster.import_shares(job, "w1", {
        "sums": {"data": [1.0, 2.0], "operation": "sum"},
        "count": {"data": 5, "operation": "sum"},
    })
    cluster.import_shares(job, "w2", {
        "sums": {"data": [3.0, 4.0], "operation": "sum"},
        "count": {"data": 7, "operation": "sum"},
    })
    return job


@pytest.mark.parametrize("scheme", ["shamir", "full_threshold"])
class TestAggregate:
    def test_sum(self, scheme):
        cluster = SMPCCluster(3, scheme, seed=1)
        job = two_worker_job(cluster)
        result = cluster.aggregate(job)
        assert result["sums"] == [4.0, 6.0]
        assert result["count"] == 12.0

    def test_min_max_union_product(self, scheme):
        cluster = SMPCCluster(3, scheme, seed=2)
        cluster.import_shares("j", "w1", {
            "mn": {"data": [5.0, -1.0], "operation": "min"},
            "mx": {"data": [5.0, -1.0], "operation": "max"},
            "u": {"data": [1, 0], "operation": "union"},
            "p": {"data": [2.0], "operation": "product"},
        })
        cluster.import_shares("j", "w2", {
            "mn": {"data": [3.0, 4.0], "operation": "min"},
            "mx": {"data": [3.0, 4.0], "operation": "max"},
            "u": {"data": [0, 0], "operation": "union"},
            "p": {"data": [-3.5], "operation": "product"},
        })
        result = cluster.aggregate("j")
        assert result["mn"] == [3.0, -1.0]
        assert result["mx"] == [5.0, 4.0]
        assert result["u"] == [1, 0]
        assert result["p"] == [-7.0]


class TestJobLifecycle:
    def test_result_retrievable_by_id(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        job = two_worker_job(cluster)
        cluster.aggregate(job)
        assert cluster.get_result(job)["count"] == 12.0

    def test_aggregate_idempotent(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        job = two_worker_job(cluster)
        first = cluster.aggregate(job)
        assert cluster.aggregate(job) is first

    def test_duplicate_worker_rejected(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        cluster.import_shares("j", "w1", {"s": {"data": 1, "operation": "sum"}})
        with pytest.raises(SMPCError):
            cluster.import_shares("j", "w1", {"s": {"data": 1, "operation": "sum"}})

    def test_unknown_job(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        with pytest.raises(SMPCError):
            cluster.aggregate("ghost")
        with pytest.raises(SMPCError):
            cluster.get_result("ghost")

    def test_job_with_no_shares_left_rejected(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        cluster.import_shares("j", "w1", {"s": {"data": 1, "operation": "sum"}})
        assert cluster.drop_worker("j", "w1")
        with pytest.raises(SMPCError, match="no imported shares"):
            cluster.aggregate("j")

    def test_key_mismatch_rejected(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        cluster.import_shares("j", "w1", {"a": {"data": 1, "operation": "sum"}})
        cluster.import_shares("j", "w2", {"b": {"data": 1, "operation": "sum"}})
        with pytest.raises(SMPCError, match="disagree"):
            cluster.aggregate("j")

    def test_operation_conflict_rejected(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        cluster.import_shares("j", "w1", {"a": {"data": 1, "operation": "sum"}})
        cluster.import_shares("j", "w2", {"a": {"data": 1, "operation": "min"}})
        with pytest.raises(SMPCError, match="conflict"):
            cluster.aggregate("j")

    def test_shape_mismatch_rejected(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        cluster.import_shares("j", "w1", {"a": {"data": [1, 2], "operation": "sum"}})
        cluster.import_shares("j", "w2", {"a": {"data": [1], "operation": "sum"}})
        with pytest.raises(SMPCError, match="shape"):
            cluster.aggregate("j")

    def test_bad_scheme(self):
        with pytest.raises(SMPCError):
            SMPCCluster(3, "garlic")


class TestNoiseInjection:
    def test_gaussian_noise_applied_to_sums(self):
        results = []
        for seed in range(5):
            cluster = SMPCCluster(3, "shamir", seed=seed)
            cluster.import_shares("j", "w1", {"s": {"data": [100.0], "operation": "sum"}})
            cluster.import_shares("j", "w2", {"s": {"data": [200.0], "operation": "sum"}})
            results.append(cluster.aggregate("j", noise=NoiseSpec("gaussian", 2.0))["s"][0])
        # noisy but centered near the true sum
        assert all(abs(v - 300.0) < 30 for v in results)
        assert len(set(results)) > 1

    def test_laplace_noise(self):
        cluster = SMPCCluster(3, "shamir", seed=0)
        cluster.import_shares("j", "w1", {"s": {"data": [50.0], "operation": "sum"}})
        cluster.import_shares("j", "w2", {"s": {"data": [50.0], "operation": "sum"}})
        value = cluster.aggregate("j", noise=NoiseSpec("laplace", 1.0))["s"][0]
        assert abs(value - 100.0) < 30

    def test_noise_partials_sum_to_target_distribution(self):
        spec = NoiseSpec("gaussian", 3.0)
        rng = np.random.default_rng(1)
        totals = np.array([
            sum(spec.partial(rng, 4, 1)[0] for _ in range(4)) for _ in range(4000)
        ])
        assert np.std(totals) == pytest.approx(3.0, rel=0.1)

    def test_scalar_shape_preserved(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        cluster.import_shares("j", "w1", {"s": {"data": 2.0, "operation": "sum"}})
        cluster.import_shares("j", "w2", {"s": {"data": 3.0, "operation": "sum"}})
        result = cluster.aggregate("j")
        assert isinstance(result["s"], float)

    def test_nested_shape_preserved(self):
        cluster = SMPCCluster(3, "shamir", seed=1)
        matrix = [[1.0, 2.0], [3.0, 4.0]]
        cluster.import_shares("j", "w1", {"m": {"data": matrix, "operation": "sum"}})
        cluster.import_shares("j", "w2", {"m": {"data": matrix, "operation": "sum"}})
        result = cluster.aggregate("j")
        assert result["m"] == [[2.0, 4.0], [6.0, 8.0]]
