"""Full-threshold additive sharing with SPDZ MACs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError
from repro.smpc import additive
from repro.smpc.field import PRIME, FieldVector


@pytest.fixture()
def rng():
    return random.Random(42)


@pytest.fixture()
def alpha(rng):
    alpha_value, shares = additive.share_alpha(3, rng)
    return alpha_value, shares


class TestSharing:
    def test_reconstruct(self, rng, alpha):
        alpha_value, _ = alpha
        secret = FieldVector([5, 10, PRIME - 1])
        shared = additive.share_vector(secret, 3, alpha_value, rng)
        assert additive.reconstruct(shared) == secret

    def test_all_shares_required(self, rng, alpha):
        """n-1 shares reveal nothing: their sum is uniformly unrelated."""
        alpha_value, _ = alpha
        secret = FieldVector([7])
        shared = additive.share_vector(secret, 3, alpha_value, rng)
        partial = sum(shared.shares[0].elements + shared.shares[1].elements) % PRIME
        assert partial != 7  # overwhelmingly likely; seeded so deterministic

    def test_alpha_shares_sum_to_alpha(self, alpha):
        alpha_value, shares = alpha
        assert sum(shares) % PRIME == alpha_value

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, PRIME - 1), min_size=1, max_size=5),
           st.integers(2, 6))
    def test_share_reconstruct_property(self, values, n_parties):
        rng = random.Random(7)
        alpha_value, alpha_shares = additive.share_alpha(n_parties, rng)
        secret = FieldVector(values)
        shared = additive.share_vector(secret, n_parties, alpha_value, rng)
        opened = additive.reconstruct(shared)
        additive.check_macs(shared, opened, alpha_shares)
        assert opened == secret


class TestMACs:
    def test_valid_macs_pass(self, rng, alpha):
        alpha_value, alpha_shares = alpha
        secret = FieldVector([123, 456])
        shared = additive.share_vector(secret, 3, alpha_value, rng)
        opened = additive.reconstruct(shared)
        additive.check_macs(shared, opened, alpha_shares)  # no raise

    def test_tampered_share_detected(self, rng, alpha):
        alpha_value, alpha_shares = alpha
        secret = FieldVector([123])
        shared = additive.share_vector(secret, 3, alpha_value, rng)
        shared.shares[1].elements[0] = (shared.shares[1].elements[0] + 1) % PRIME
        opened = additive.reconstruct(shared)
        with pytest.raises(IntegrityError):
            additive.check_macs(shared, opened, alpha_shares)

    def test_tampered_mac_detected(self, rng, alpha):
        alpha_value, alpha_shares = alpha
        secret = FieldVector([123])
        shared = additive.share_vector(secret, 3, alpha_value, rng)
        shared.macs[0].elements[0] = (shared.macs[0].elements[0] + 1) % PRIME
        opened = additive.reconstruct(shared)
        with pytest.raises(IntegrityError):
            additive.check_macs(shared, opened, alpha_shares)


class TestLinearOps:
    def test_add_sub(self, rng, alpha):
        alpha_value, alpha_shares = alpha
        a = additive.share_vector(FieldVector([10, 20]), 3, alpha_value, rng)
        b = additive.share_vector(FieldVector([1, 2]), 3, alpha_value, rng)
        total = additive.add(a, b)
        assert additive.reconstruct(total).elements == [11, 22]
        additive.check_macs(total, additive.reconstruct(total), alpha_shares)
        diff = additive.sub(a, b)
        assert additive.reconstruct(diff).elements == [9, 18]

    def test_scale(self, rng, alpha):
        alpha_value, alpha_shares = alpha
        a = additive.share_vector(FieldVector([10]), 3, alpha_value, rng)
        scaled = additive.scale(a, 5)
        assert additive.reconstruct(scaled).elements == [50]
        additive.check_macs(scaled, additive.reconstruct(scaled), alpha_shares)

    def test_add_public_updates_macs(self, rng, alpha):
        alpha_value, alpha_shares = alpha
        a = additive.share_vector(FieldVector([10]), 3, alpha_value, rng)
        shifted = additive.add_public(a, FieldVector([7]), alpha_shares)
        opened = additive.reconstruct(shifted)
        assert opened.elements == [17]
        additive.check_macs(shifted, opened, alpha_shares)
