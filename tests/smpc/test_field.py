"""Prime-field arithmetic."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SMPCError
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


class TestKernelSelection:
    """$REPRO_SMPC_KERNEL is resolved once per process, on first use."""

    @pytest.fixture(autouse=True)
    def unresolved(self, monkeypatch):
        from repro.smpc import field

        monkeypatch.setattr(field, "_kernel_override", None)
        monkeypatch.setattr(field, "_env_kernel", None)

    def test_environment_is_read_once(self, monkeypatch):
        from repro.smpc import field

        monkeypatch.setenv(field.KERNEL_ENV, " Python ")
        assert field.active_kernel() == "python"
        monkeypatch.setenv(field.KERNEL_ENV, "numpy")
        assert field.active_kernel() == "python"

    def test_unset_means_auto(self, monkeypatch):
        from repro.smpc import field

        monkeypatch.delenv(field.KERNEL_ENV, raising=False)
        assert field.active_kernel() == "auto"

    def test_set_kernel_overrides_and_restores(self, monkeypatch):
        from repro.smpc import field

        monkeypatch.setenv(field.KERNEL_ENV, "python")
        assert field.set_kernel("numpy") is None
        assert field.active_kernel() == "numpy"
        assert field.set_kernel(None) == "numpy"
        assert field.active_kernel() == "python"

    def test_invalid_value_raises_every_time(self, monkeypatch):
        from repro.smpc import field

        monkeypatch.setenv(field.KERNEL_ENV, "fortran")
        for _ in range(2):
            with pytest.raises(SMPCError, match="REPRO_SMPC_KERNEL"):
                field.active_kernel()
        with pytest.raises(SMPCError):
            field.set_kernel("fortran")
