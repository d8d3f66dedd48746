"""Fixed-point encoding of reals into the field."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SMPCError
from repro.smpc.encoding import FixedPointEncoder, from_signed_int64, to_signed_int64
from repro.smpc.field import PRIME, FieldVector


@pytest.fixture()
def encoder():
    return FixedPointEncoder()


class TestRoundtrip:
    @given(st.floats(-1e6, 1e6))
    def test_roundtrip_within_precision(self, value):
        encoder = FixedPointEncoder()
        decoded = encoder.decode(encoder.encode(value))
        assert decoded == pytest.approx(value, abs=1.0 / encoder.scale)

    def test_negative_representation(self, encoder):
        assert encoder.decode(encoder.encode(-1.5)) == -1.5

    def test_zero(self, encoder):
        assert encoder.decode(encoder.encode(0.0)) == 0.0

    @given(st.integers(-10**6, 10**6))
    def test_integer_mode_exact(self, value):
        encoder = FixedPointEncoder()
        assert encoder.decode_int(encoder.encode_int(value)) == value

    def test_vector_roundtrip(self, encoder):
        values = np.array([1.25, -2.5, 0.0])
        decoded = encoder.decode_vector(encoder.encode_vector(values))
        assert np.allclose(decoded, values)


class TestRangeChecks:
    def test_out_of_range_rejected(self, encoder):
        limit = encoder.bound / encoder.scale
        with pytest.raises(SMPCError):
            encoder.encode(limit * 2)

    def test_integer_out_of_range(self, encoder):
        with pytest.raises(SMPCError):
            encoder.encode_int(encoder.bound * 2)

    def test_bad_parameters(self):
        with pytest.raises(SMPCError):
            FixedPointEncoder(fractional_bits=50, magnitude_bits=40)


class TestHomomorphism:
    """Field addition of encodings corresponds to real addition."""

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_additive(self, a, b):
        encoder = FixedPointEncoder()
        combined = encoder.decode((encoder.encode(a) + encoder.encode(b)) % PRIME)
        assert combined == pytest.approx(a + b, abs=2.0 / encoder.scale)


class TestSignedBridge:
    @given(st.lists(st.integers(-(2**62) + 1, 2**62 - 1), max_size=16))
    def test_from_signed_round_trip(self, values):
        array = np.array(values, dtype=np.int64)
        assert from_signed_int64(array).elements == [v % PRIME for v in values]
        assert to_signed_int64(from_signed_int64(array)).tolist() == values

    def test_to_signed_overflow_returns_none(self):
        assert to_signed_int64(FieldVector([1 << 62])) is None
        assert to_signed_int64(FieldVector([PRIME - (1 << 62)])) is None


class TestVectorized:
    """The whole-array encoders and decoders against the scalar path."""

    @given(st.lists(st.floats(-1e9, 1e9), max_size=16))
    def test_encode_matches_scalar_path(self, values):
        encoder = FixedPointEncoder()
        out = encoder.encode_to_field_vector(values).elements
        assert out == [encoder.encode(v) for v in values]

    @given(st.lists(st.floats(-1e9, 1e9), max_size=16))
    def test_decode_matches_scalar_path(self, values):
        encoder = FixedPointEncoder()
        encoded = [encoder.encode(v) for v in values]
        out = encoder.decode_field_vector(FieldVector(encoded)).tolist()
        assert out == [encoder.decode(e) for e in encoded]

    def test_encode_large_falls_back_exactly(self, encoder):
        big = [float(2**50), -float(2**50)]  # scaled past the int64 bound
        out = encoder.encode_to_field_vector(big).elements
        assert out == [encoder.encode(v) for v in big]

    def test_encode_out_of_range_raises(self, encoder):
        with pytest.raises(SMPCError):
            encoder.encode_to_field_vector([float(2**70)])

    def test_encode_ints_matches_scalar_path(self, encoder):
        values = np.array([0.0, 1.0, -3.0, 2.5, -2.5, 1e15])
        out = encoder.encode_ints_to_field_vector(values).elements
        assert out == [encoder.encode_int(int(round(v))) for v in values]
