"""Plain (master-side) aggregation of secure-transfer payloads."""

import pytest

from repro.errors import FederationError
from repro.federation.aggregation import aggregate_plain


class TestAggregatePlain:
    def test_sum_vectors(self):
        transfers = [
            {"s": {"data": [1.0, 2.0], "operation": "sum"}},
            {"s": {"data": [3.0, 4.0], "operation": "sum"}},
        ]
        assert aggregate_plain(transfers)["s"] == [4.0, 6.0]

    def test_scalar_kept_scalar(self):
        transfers = [
            {"n": {"data": 5, "operation": "sum"}},
            {"n": {"data": 7, "operation": "sum"}},
        ]
        result = aggregate_plain(transfers)["n"]
        assert result == 12.0
        assert not isinstance(result, list)

    def test_min_max(self):
        transfers = [
            {"lo": {"data": [5.0], "operation": "min"}, "hi": {"data": [5.0], "operation": "max"}},
            {"lo": {"data": [2.0], "operation": "min"}, "hi": {"data": [9.0], "operation": "max"}},
        ]
        result = aggregate_plain(transfers)
        assert result["lo"] == [2.0]
        assert result["hi"] == [9.0]

    def test_union(self):
        transfers = [
            {"u": {"data": [1, 0, 0], "operation": "union"}},
            {"u": {"data": [0, 0, 1], "operation": "union"}},
        ]
        assert aggregate_plain(transfers)["u"] == [1, 0, 1]

    def test_product(self):
        transfers = [
            {"p": {"data": [2.0], "operation": "product"}},
            {"p": {"data": [-4.0], "operation": "product"}},
        ]
        assert aggregate_plain(transfers)["p"] == [-8.0]

    def test_nested_matrices(self):
        transfers = [
            {"m": {"data": [[1.0, 0.0], [0.0, 1.0]], "operation": "sum"}},
            {"m": {"data": [[1.0, 1.0], [1.0, 1.0]], "operation": "sum"}},
        ]
        assert aggregate_plain(transfers)["m"] == [[2.0, 1.0], [1.0, 2.0]]

    def test_matches_smpc_semantics(self):
        """Plain and SMPC aggregation agree on the same payloads."""
        from repro.smpc.cluster import SMPCCluster

        payload_a = {
            "s": {"data": [1.5, -2.0], "operation": "sum"},
            "mn": {"data": [4.0], "operation": "min"},
            "u": {"data": [1, 0], "operation": "union"},
        }
        payload_b = {
            "s": {"data": [0.5, 3.0], "operation": "sum"},
            "mn": {"data": [-1.0], "operation": "min"},
            "u": {"data": [1, 1], "operation": "union"},
        }
        plain = aggregate_plain([payload_a, payload_b])
        cluster = SMPCCluster(3, "shamir", seed=1)
        cluster.import_shares("j", "a", payload_a)
        cluster.import_shares("j", "b", payload_b)
        secure = cluster.aggregate("j")
        assert plain["s"] == pytest.approx(secure["s"], abs=1e-3)
        assert plain["mn"] == pytest.approx(secure["mn"], abs=1e-3)
        assert plain["u"] == secure["u"]

    def test_errors(self):
        with pytest.raises(FederationError):
            aggregate_plain([])
        with pytest.raises(FederationError, match="disagree"):
            aggregate_plain([{"a": {"data": 1, "operation": "sum"}},
                             {"b": {"data": 1, "operation": "sum"}}])
        with pytest.raises(FederationError, match="conflict"):
            aggregate_plain([{"a": {"data": 1, "operation": "sum"}},
                             {"a": {"data": 1, "operation": "min"}}])
        with pytest.raises(FederationError, match="shape"):
            aggregate_plain([{"a": {"data": [1, 2], "operation": "sum"}},
                             {"a": {"data": [1], "operation": "sum"}}])
        with pytest.raises(FederationError, match="unsupported"):
            aggregate_plain([{"a": {"data": 1, "operation": "median"}}])


class TestDeclaredBounds:
    """Plain and secure aggregation refuse the same payloads."""

    OUT_OF_RANGE = [
        {"lo": {"data": [1.0, 2.5], "operation": "min", "bound": 2.0}},
        {"lo": {"data": [0.5, -1.0], "operation": "min", "bound": 2.0}},
    ]

    def _secure(self, transfers):
        from repro.smpc.cluster import SMPCCluster

        cluster = SMPCCluster(3, "shamir", seed=1)
        for worker, transfer in enumerate(transfers):
            cluster.import_shares("j", f"w{worker}", transfer)
        return cluster.aggregate("j")

    def test_out_of_range_value_fails_both_paths(self):
        from repro.errors import SMPCError

        with pytest.raises(FederationError, match="key 'lo': a value lies outside its declared bound 2.0"):
            aggregate_plain(self.OUT_OF_RANGE)
        with pytest.raises(SMPCError, match="key 'lo': a value lies outside its declared bound 2.0"):
            self._secure(self.OUT_OF_RANGE)

    def test_disagreeing_bounds_fail_both_paths(self):
        from repro.errors import SMPCError

        transfers = [
            {"lo": {"data": [1.0], "operation": "min", "bound": 2.0}},
            {"lo": {"data": [1.0], "operation": "min", "bound": 3.0}},
        ]
        with pytest.raises(FederationError, match="conflicting bounds"):
            aggregate_plain(transfers)
        with pytest.raises(SMPCError, match="conflicting bounds"):
            self._secure(transfers)

    def test_a_worker_omitting_the_bound_agrees(self):
        transfers = [
            {"lo": {"data": [1.0, 2.0], "operation": "min", "bound": 2.0}},
            {"lo": {"data": [0.5, -2500.0], "operation": "min", "bound": None}},
        ]
        assert aggregate_plain(transfers) == self._secure(transfers) == {"lo": [0.5, -2500.0]}

    def test_in_range_bounded_payload_agrees(self):
        transfers = [
            {"lo": {"data": [1.0, 2.0], "operation": "min", "bound": 2.0},
             "hi": {"data": [1.0, 2.0], "operation": "max", "bound": 2.0}},
            {"lo": {"data": [0.5, -2.0], "operation": "min", "bound": 2.0},
             "hi": {"data": [0.5, -2.0], "operation": "max", "bound": 2.0}},
        ]
        assert aggregate_plain(transfers) == self._secure(transfers) == {
            "lo": [0.5, -2.0], "hi": [1.0, 2.0],
        }
