"""Shamir secret sharing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SMPCError, ThresholdError
from repro.smpc import shamir
from repro.smpc.field import PRIME, FieldVector


@pytest.fixture()
def rng():
    return random.Random(42)


class TestSharing:
    def test_reconstruct_from_threshold_plus_one(self, rng):
        secret = FieldVector([5, PRIME - 2])
        shared = shamir.share_vector(secret, 5, 2, rng)
        assert shamir.reconstruct(shared) == secret

    def test_reconstruct_from_any_subset(self, rng):
        secret = FieldVector([31337])
        shared = shamir.share_vector(secret, 5, 2, rng)
        subset = [(4, shared.shares[4]), (1, shared.shares[1]), (3, shared.shares[3])]
        assert shamir.reconstruct_from_subset(subset, 2).elements == [31337]

    def test_too_few_shares(self, rng):
        secret = FieldVector([1])
        shared = shamir.share_vector(secret, 5, 2, rng)
        with pytest.raises(ThresholdError):
            shamir.reconstruct_from_subset([(0, shared.shares[0])], 2)

    def test_threshold_must_be_below_n(self, rng):
        with pytest.raises(SMPCError):
            shamir.share_vector(FieldVector([1]), 3, 3, rng)

    def test_default_threshold_below_half(self):
        assert shamir.default_threshold(3) == 1
        assert shamir.default_threshold(5) == 2
        assert shamir.default_threshold(7) == 3
        for n in range(2, 12):
            assert shamir.default_threshold(n) < n / 2 or n == 2

    @settings(max_examples=20)
    @given(
        st.lists(st.integers(0, PRIME - 1), min_size=1, max_size=4),
        st.integers(3, 7),
    )
    def test_share_reconstruct_property(self, values, n_parties):
        rng = random.Random(9)
        threshold = shamir.default_threshold(n_parties)
        secret = FieldVector(values)
        shared = shamir.share_vector(secret, n_parties, threshold, rng)
        assert shamir.reconstruct(shared) == secret


class TestLinearOps:
    def test_add(self, rng):
        a = shamir.share_vector(FieldVector([10]), 5, 2, rng)
        b = shamir.share_vector(FieldVector([32]), 5, 2, rng)
        assert shamir.reconstruct(shamir.add(a, b)).elements == [42]

    def test_sub(self, rng):
        a = shamir.share_vector(FieldVector([10]), 5, 2, rng)
        b = shamir.share_vector(FieldVector([3]), 5, 2, rng)
        assert shamir.reconstruct(shamir.sub(a, b)).elements == [7]

    def test_scale(self, rng):
        a = shamir.share_vector(FieldVector([10]), 5, 2, rng)
        assert shamir.reconstruct(shamir.scale(a, 4)).elements == [40]

    def test_add_public(self, rng):
        a = shamir.share_vector(FieldVector([10]), 5, 2, rng)
        assert shamir.reconstruct(shamir.add_public(a, FieldVector([5]))).elements == [15]

    def test_incompatible_sharings(self, rng):
        a = shamir.share_vector(FieldVector([1]), 5, 2, rng)
        b = shamir.share_vector(FieldVector([1]), 5, 1, rng)
        with pytest.raises(SMPCError):
            shamir.add(a, b)


def share_vector_per_element(vector, n_parties, threshold, rng):
    """The sharer as first written: one polynomial per element, drawn and
    evaluated one at a time.  Kept as the oracle for the column-wise one."""
    shares = [[0] * len(vector) for _ in range(n_parties)]
    for index, secret in enumerate(vector.elements):
        coefficients = [secret] + [rng.randrange(PRIME) for _ in range(threshold)]
        for party in range(n_parties):
            result = 0
            for coefficient in reversed(coefficients):
                result = (result * (party + 1) + coefficient) % PRIME
            shares[party][index] = result
    return shares


class TestColumnWiseHorner:
    @pytest.mark.parametrize(("n_parties", "threshold"), [(3, 1), (5, 2), (7, 3), (9, 4)])
    @pytest.mark.parametrize("length", [0, 1, 7, 200])
    def test_same_shares_and_same_rng_state_as_the_per_element_loop(
        self, n_parties, threshold, length
    ):
        secret = FieldVector.random(length, random.Random(length))
        rng, oracle_rng = random.Random(77), random.Random(77)
        shared = shamir.share_vector(secret, n_parties, threshold, rng)
        oracle = share_vector_per_element(secret, n_parties, threshold, oracle_rng)
        assert [share.elements for share in shared.shares] == oracle
        assert rng.getstate() == oracle_rng.getstate()
        assert shamir.reconstruct(shared) == secret

    def test_shares_do_not_alias_each_other_or_the_secret(self):
        secret = FieldVector([1, 2, 3])
        shared = shamir.share_vector(secret, 3, 1, random.Random(1))
        shared.shares[0].elements[0] = 0
        assert secret.elements == [1, 2, 3]
        assert shared.shares[1].elements[0] != 0


class TestLagrange:
    def test_coefficients_sum_to_one(self):
        # Interpolating a constant polynomial: coefficients must sum to 1.
        coefficients = shamir.lagrange_coefficients_at_zero([1, 2, 3])
        assert sum(coefficients) % PRIME == 1
