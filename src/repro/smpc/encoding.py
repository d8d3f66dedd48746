"""Fixed-point encoding of reals into the prime field.

SPDZ-style engines compute over integers; reals are scaled by 2^f and
negatives are represented as p - |x|.  The magnitude bound (2^L) matters for
the secure-comparison protocol: masked opens are statistically hiding only
when the mask has ``kappa`` extra bits beyond L, and L + kappa + 1 must stay
below the field size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SMPCError
from repro.smpc.field import PRIME, FieldVector

#: Default fractional bits.
DEFAULT_FRACTIONAL_BITS = 16
#: Default magnitude bits (values encode into [-2^L, 2^L)).  80 bits leave a
#: real-valued range of ±2^64 — enough for second-moment sums over national-
#: scale caseloads — while 80 + 40 + 2 still fits the 127-bit field.
DEFAULT_MAGNITUDE_BITS = 80
#: Statistical-security bits for masked opens.
STATISTICAL_BITS = 40
#: Magnitude bound of the int64 bridges: |value| < 2^62 round-trips
#: through int64 with a sign bit and one safety bit to spare.
INT64_BOUND = 1 << 62


def from_signed_int64(values: np.ndarray) -> FieldVector:
    """A vector from signed int64 residues: negatives map to ``p - |v|``."""
    return FieldVector._raw([value % PRIME for value in values.tolist()])


def to_signed_int64(vector: FieldVector) -> np.ndarray | None:
    """The centered signed-int64 view, or ``None`` if any |value| >= 2^62.

    Elements below p/2 come back positive, elements above come back
    negative.  Callers fall back to the exact big-int path on ``None``.
    """
    half = PRIME >> 1
    signed = [value if value <= half else value - PRIME for value in vector.elements]
    if signed and (min(signed) <= -INT64_BOUND or max(signed) >= INT64_BOUND):
        return None
    return np.array(signed, dtype=np.int64)


class FixedPointEncoder:
    """Encode/decode reals as field elements with a fixed scale."""

    def __init__(
        self,
        fractional_bits: int = DEFAULT_FRACTIONAL_BITS,
        magnitude_bits: int = DEFAULT_MAGNITUDE_BITS,
    ) -> None:
        if magnitude_bits + STATISTICAL_BITS + 2 >= PRIME.bit_length():
            raise SMPCError("magnitude + statistical bits exceed field capacity")
        if fractional_bits >= magnitude_bits:
            raise SMPCError("fractional bits must be below magnitude bits")
        self.fractional_bits = fractional_bits
        self.magnitude_bits = magnitude_bits
        self.scale = 1 << fractional_bits
        self.bound = 1 << magnitude_bits

    def encode(self, value: float) -> int:
        """Encode one real into the field; raises if out of range."""
        scaled = int(round(float(value) * self.scale))
        if abs(scaled) >= self.bound:
            raise SMPCError(
                f"value {value} exceeds fixed-point range "
                f"(±2^{self.magnitude_bits - self.fractional_bits})"
            )
        return scaled % PRIME

    def decode(self, element: int) -> float:
        """Decode one field element back to a real."""
        element = element % PRIME
        if element > PRIME // 2:
            signed = element - PRIME
        else:
            signed = element
        return signed / self.scale

    def encode_vector(self, values: Sequence[float] | np.ndarray) -> list[int]:
        return [self.encode(v) for v in np.asarray(values, dtype=np.float64).ravel()]

    def decode_vector(self, elements: Sequence[int]) -> np.ndarray:
        return np.array([self.decode(e) for e in elements], dtype=np.float64)

    def encode_to_field_vector(self, values: Sequence[float] | np.ndarray) -> FieldVector:
        """Vectorized :meth:`encode` of a whole array into a FieldVector.

        Bit-exact with the scalar path: the scale is a power of two, so the
        float multiply is an exact exponent shift and ``np.rint`` applies the
        same round-half-even rule as Python's ``round``.  Non-finite inputs
        or magnitudes at 2^62 and beyond take the scalar reference path so
        range errors surface identically.
        """
        array = np.asarray(values, dtype=np.float64).ravel()
        scaled = array * self.scale
        limit = float(min(self.bound, INT64_BOUND))
        if array.size and np.all(np.isfinite(scaled)):
            rounded = np.rint(scaled)
            if np.all(np.abs(rounded) < limit):
                return from_signed_int64(rounded.astype(np.int64))
        return FieldVector(self.encode_vector(array))

    def decode_field_vector(self, vector: FieldVector) -> np.ndarray:
        """Vectorized :meth:`decode` of an opened FieldVector.

        Uses the centered signed-int64 view when every magnitude is below
        2^62 (always true for in-range statistics); division by the
        power-of-two scale is an exact exponent shift, so results match the
        scalar decode bit for bit.  Falls back to the scalar path otherwise.
        """
        signed = to_signed_int64(vector)
        if signed is None:
            return self.decode_vector(vector.elements)
        return signed.astype(np.float64) / self.scale

    def encode_ints_to_field_vector(self, values: Sequence[int] | np.ndarray) -> FieldVector:
        """Vectorized ``encode_int(int(round(v)))`` (counts and unions).

        Float inputs are rounded half-even like the scalar ``round``;
        out-of-int64-range or non-finite inputs fall back to the scalar path
        so errors surface identically.
        """
        array = np.asarray(values).ravel()
        limit = min(self.bound, INT64_BOUND)
        if array.size and np.issubdtype(array.dtype, np.floating):
            rounded = np.rint(array)
            with np.errstate(invalid="ignore"):
                small = np.isfinite(rounded) & (np.abs(rounded) < float(limit))
            if np.all(small):
                return from_signed_int64(rounded.astype(np.int64))
        elif (
            array.size
            and np.issubdtype(array.dtype, np.integer)
            and np.all(np.abs(array) < limit)
        ):
            return from_signed_int64(array.astype(np.int64))
        if array.size and np.issubdtype(array.dtype, np.floating):
            return FieldVector([self.encode_int(int(round(float(v)))) for v in array])
        return FieldVector([self.encode_int(int(v)) for v in array])

    def decode_ints_from_field_vector(self, vector: FieldVector) -> np.ndarray | list[int]:
        """Vectorized :meth:`decode_int` of an opened FieldVector."""
        signed = to_signed_int64(vector)
        if signed is None:
            return [self.decode_int(e) for e in vector.elements]
        return signed

    def encode_int(self, value: int) -> int:
        """Encode an integer without scaling (for counts and unions)."""
        if abs(int(value)) >= self.bound:
            raise SMPCError(f"integer {value} exceeds fixed-point range")
        return int(value) % PRIME

    def decode_int(self, element: int) -> int:
        element = element % PRIME
        if element > PRIME // 2:
            return element - PRIME
        return element
