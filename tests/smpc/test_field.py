"""Prime-field arithmetic."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SMPCError
from repro.smpc import field
from repro.smpc.field import (
    PRIME,
    FieldVector,
    fadd,
    finv,
    fmul,
    fneg,
    fpow,
    fsub,
    vector_sum,
)

elements = st.integers(0, PRIME - 1)


class TestScalarOps:
    @given(elements, elements)
    def test_add_sub_inverse(self, a, b):
        assert fsub(fadd(a, b), b) == a % PRIME

    @given(elements)
    def test_neg(self, a):
        assert fadd(a, fneg(a)) == 0

    @given(st.integers(1, PRIME - 1))
    def test_inverse(self, a):
        assert fmul(a, finv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(SMPCError):
            finv(0)

    @given(st.integers(1, PRIME - 1), st.integers(0, 100))
    def test_pow_matches_repeated_mul(self, a, exponent):
        expected = 1
        for _ in range(exponent):
            expected = fmul(expected, a)
        assert fpow(a, exponent) == expected

    def test_prime_is_mersenne_127(self):
        assert PRIME == (1 << 127) - 1


class TestFieldVector:
    def test_construction_reduces_mod_p(self):
        vec = FieldVector([PRIME + 1, -1])
        assert vec.elements == [1, PRIME - 1]

    def test_elementwise_ops(self):
        a = FieldVector([1, 2, 3])
        b = FieldVector([10, 20, 30])
        assert (a + b).elements == [11, 22, 33]
        assert (b - a).elements == [9, 18, 27]
        assert (a * b).elements == [10, 40, 90]

    def test_scale_and_add_scalar(self):
        a = FieldVector([1, 2])
        assert a.scale(3).elements == [3, 6]
        assert a.add_scalar(5).elements == [6, 7]

    def test_negate(self):
        a = FieldVector([1])
        assert (a + a.negate()).elements == [0]

    def test_length_mismatch(self):
        with pytest.raises(SMPCError):
            FieldVector([1]) + FieldVector([1, 2])

    def test_random_in_range(self):
        vec = FieldVector.random(100, random.Random(1))
        assert all(0 <= e < PRIME for e in vec)

    def test_zeros(self):
        assert FieldVector.zeros(3).elements == [0, 0, 0]

    def test_vector_sum(self):
        vectors = [FieldVector([1, 1]), FieldVector([2, 2]), FieldVector([3, 3])]
        assert vector_sum(vectors).elements == [6, 6]

    def test_vector_sum_empty(self):
        with pytest.raises(SMPCError):
            vector_sum([])

    @given(st.lists(elements, min_size=1, max_size=8))
    def test_add_commutes(self, values):
        a = FieldVector(values)
        b = FieldVector(list(reversed(values)))
        assert (a + b).elements == (b + a).elements


class TestRowDot:
    def test_rejects_misfit_weights(self):
        with pytest.raises(SMPCError):
            field.row_dot(FieldVector([1, 2, 3]), 2, [1])
        with pytest.raises(SMPCError):
            field.row_dot(FieldVector([1, 2, 3, 4]), 2, [1, 1], start=1)

    def test_a_bit_matrix_rebuilds_the_masks(self):
        """The comparison protocol's shape: 122 power-of-two weights per row."""
        rng = random.Random(3)
        masks = [rng.getrandbits(122) for _ in range(5)]
        bits = [(mask >> i) & 1 for mask in masks for i in range(122)]
        weights = [1 << i for i in range(122)]
        assert field.row_dot(FieldVector(bits), 122, weights).elements == masks
        assert field.row_dot(FieldVector(bits), 122, weights[:40], start=82).elements == [
            mask >> 82 for mask in masks
        ]


class TestRandomDraws:
    """Batched draws consume the seeded RNG exactly like the per-element
    ``rng.randrange`` loop they replace."""

    def test_field_vector_random_matches_randrange(self):
        r1, r2 = random.Random(1234), random.Random(1234)
        batched = FieldVector.random(257, r1)
        reference = [r2.randrange(PRIME) for _ in range(257)]
        assert batched.elements == reference
        # The streams stay aligned after the draw.
        assert r1.random() == r2.random()

    def test_random_bits_match_randrange(self):
        r1, r2 = random.Random(77), random.Random(77)
        bits = field.random_bit_elements(503, r1)
        reference = [r2.randrange(2) for _ in range(503)]
        assert bits == reference
        assert r1.random() == r2.random()

    def test_a_rejected_draw_is_replaced_in_stream_order(self):
        """A draw equal to p is skipped exactly as ``randrange(PRIME)`` skips it."""

        class Scripted:
            def __init__(self, values):
                self.values = iter(values)

            def getrandbits(self, bits):
                assert bits == 127
                return next(self.values)

        script = [5, PRIME, 7, PRIME, PRIME, 9, 11, 13]
        expected = [v for v in script if v != PRIME][:4]
        assert field.random_field_elements(4, Scripted(script)) == expected
        rest = Scripted(script)
        field.random_field_elements(4, rest)
        assert next(rest.values) == 13  # nothing past the fourth accepted draw
