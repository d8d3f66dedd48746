"""Prime-field arithmetic."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SMPCError
from repro.smpc import field
from repro.smpc.field import PRIME, FieldVector, finv, vector_sum

elements = st.integers(0, PRIME - 1)


class TestScalarOps:
    @given(st.integers(1, PRIME - 1))
    def test_inverse(self, a):
        assert a * finv(a) % PRIME == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(SMPCError):
            finv(0)

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

    def test_scale(self):
        a = FieldVector([1, 2])
        assert a.scale(3).elements == [3, 6]

    def test_length_mismatch(self):
        with pytest.raises(SMPCError):
            FieldVector([1]) + FieldVector([1, 2])

    def test_random_in_range(self):
        vec = FieldVector.random(100, random.Random(1))
        assert all(0 <= e < PRIME for e in vec.elements)

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
