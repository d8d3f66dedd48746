"""Vectorized arithmetic in Z_p (p = 2^127 - 1) on numpy limb arrays.

A length-N field vector is an ``(N, 5)`` int64 array of radix-2^26 limbs:
element ``v = sum(limbs[i] << (26 * i))``.  In *canonical* form limbs 0-3 are
below 2^26 and limb 4 below 2^23 (127 = 4 * 26 + 23), and the all-ones
pattern (the value p itself) is normalized to zero, so canonical arrays are
bit-for-bit unique per residue — equality and serialization need no extra
reduction.

Why this layout works on int64 hardware:

* **Schoolbook multiply.**  Limb products are below 2^52 and each of the nine
  output positions accumulates at most five of them (< 5 * 2^52 < 2^55), so
  the whole product fits int64 with no intermediate carries.
* **Mersenne folding.**  Position k >= 5 carries weight 2^(26k) =
  2^(26(k-5)) * 2^130 and 2^130 = 8 * 2^127 ≡ 8 (mod p), so the high half
  folds back as ``z[:, k-5] += z[:, k] << 3`` — reduction costs four shifted
  adds instead of a wide division.
* **Lazy accumulation.**  Canonical limbs are < 2^26, so int64 limb sums of
  up to 2^36 vectors cannot overflow; ``vector_sum`` and the Lagrange /
  MAC-check linear combinations add first and carry once at the end.

All public functions take canonical inputs and return canonical outputs
unless explicitly documented otherwise (the ``acc_*`` helpers).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SMPCError

#: The field modulus (kept in sync with :mod:`repro.smpc.field`).
PRIME = (1 << 127) - 1

#: Limbs per element and the radix split 127 = 4 * 26 + 23.
N_LIMBS = 5
LIMB_BITS = 26
TOP_BITS = 23
_MASK = (1 << LIMB_BITS) - 1
_TOP_MASK = (1 << TOP_BITS) - 1

#: Canonical limb pattern of p itself (all ones): normalized to zero.
_P_LIMBS = np.array([_MASK, _MASK, _MASK, _MASK, _TOP_MASK], dtype=np.int64)

#: How many canonical vectors a lazy int64 accumulator absorbs before a
#: carry pass is forced (2^36 * 2^26 = 2^62 leaves one safety bit).
LAZY_ADD_LIMIT = 1 << 36

#: How many scalar-product terms ``acc_scale`` may accumulate before a fold:
#: each term adds < 5 * 2^52 per position and folding multiplies by 8, so 32
#: terms stay below 2^52 * 5 * 32 * 8 < 2^63.
LAZY_MUL_LIMIT = 32


# ------------------------------------------------------------- conversions


def to_limbs(elements: Sequence[int]) -> np.ndarray:
    """Pack canonical field elements (ints in [0, p)) into an (N, 5) array.

    Elements are serialized to 16 little-endian bytes each in one C-level
    pass, reinterpreted as two uint64 halves, and split into limbs with
    vectorized shifts — the only per-element Python cost is ``int.to_bytes``.
    """
    if not isinstance(elements, (list, tuple)):
        elements = list(elements)
    if not elements:
        return np.zeros((0, N_LIMBS), dtype=np.int64)
    buffer = b"".join([value.to_bytes(16, "little") for value in elements])
    return limbs_from_le16(buffer)


def limbs_from_le16(buffer: bytes) -> np.ndarray:
    """Unpack concatenated 16-byte little-endian elements into limbs."""
    if not buffer:
        return np.zeros((0, N_LIMBS), dtype=np.int64)
    halves = np.frombuffer(buffer, dtype="<u8").reshape(-1, 2)
    lo, hi = halves[:, 0], halves[:, 1]
    out = np.empty((halves.shape[0], N_LIMBS), dtype=np.int64)
    out[:, 0] = (lo & _MASK).astype(np.int64)
    out[:, 1] = ((lo >> 26) & _MASK).astype(np.int64)
    out[:, 2] = (((lo >> 52) | (hi << 12)) & _MASK).astype(np.int64)
    out[:, 3] = ((hi >> 14) & _MASK).astype(np.int64)
    out[:, 4] = ((hi >> 40) & _TOP_MASK).astype(np.int64)
    return out


def from_limbs(limbs: np.ndarray) -> list[int]:
    """Unpack a canonical (N, 5) limb array into a list of Python ints."""
    n = limbs.shape[0]
    if n == 0:
        return []
    u = limbs.astype(np.uint64)
    packed = np.empty((n, 2), dtype="<u8")
    packed[:, 0] = u[:, 0] | (u[:, 1] << 26) | ((u[:, 2] & 0xFFF) << 52)
    packed[:, 1] = (u[:, 2] >> 12) | (u[:, 3] << 14) | (u[:, 4] << 40)
    buffer = packed.tobytes()
    view = memoryview(buffer)
    return [int.from_bytes(view[i * 16 : i * 16 + 16], "little") for i in range(n)]


#: Magnitude bound for the int64 fast paths: |value| < 2^62 round-trips
#: through int64 with a sign bit and one safety bit to spare.
INT64_BOUND = 1 << 62
_SMALL_L2 = 1 << (62 - 2 * LIMB_BITS)  # limb-2 bound for values < 2^62


def from_signed_int64(values: np.ndarray) -> np.ndarray:
    """Pack signed int64 residues (|v| < 2^62) into canonical limbs.

    The fixed-point encoder's fast path: statistics encode to small signed
    integers, and ``v mod p`` is ``v`` for ``v >= 0`` and ``p - |v|``
    otherwise — the latter is a borrow-free limbwise subtraction from p's
    all-ones pattern, so no 127-bit intermediates ever materialize.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and int(np.abs(values).max()) >= INT64_BOUND:
        raise SMPCError("from_signed_int64 operand exceeds 2^62")
    magnitude = np.abs(values)
    out = np.empty((len(values), N_LIMBS), dtype=np.int64)
    out[:, 0] = magnitude & _MASK
    out[:, 1] = (magnitude >> 26) & _MASK
    out[:, 2] = magnitude >> 52
    out[:, 3] = 0
    out[:, 4] = 0
    negative = values < 0
    if negative.any():
        # p - |v|, borrow-free against the all-ones limb pattern; |v| == 0
        # must stay 0 (p maps to the zero residue).
        nonzero = negative & (values != 0)
        out[nonzero] = _P_LIMBS - out[nonzero]
    return out


def to_signed_int64(limbs: np.ndarray) -> np.ndarray | None:
    """Unpack canonical limbs into signed int64 residues, or None.

    Returns the centered representative (positive below p/2, negative
    above) when *every* element has magnitude below 2^62; otherwise None so
    callers fall back to the exact big-int path.  The decode hot path: no
    Python ints are built for national-scale result vectors.
    """
    if limbs.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    small_pos = (
        (limbs[:, 2] < _SMALL_L2) & (limbs[:, 3] == 0) & (limbs[:, 4] == 0)
    )
    complement = _P_LIMBS - limbs
    small_neg = (
        (complement[:, 2] < _SMALL_L2)
        & (complement[:, 3] == 0)
        & (complement[:, 4] == 0)
    )
    if not np.all(small_pos | small_neg):
        return None
    positive = limbs[:, 0] | (limbs[:, 1] << 26) | (limbs[:, 2] << 52)
    negative = complement[:, 0] | (complement[:, 1] << 26) | (complement[:, 2] << 52)
    return np.where(small_pos, positive, -negative)


def scalar_to_limbs(scalar: int) -> np.ndarray:
    """Decompose one canonical scalar into its five limbs (shape (5,))."""
    scalar = scalar % PRIME
    return np.array(
        [
            scalar & _MASK,
            (scalar >> 26) & _MASK,
            (scalar >> 52) & _MASK,
            (scalar >> 78) & _MASK,
            (scalar >> 104) & _TOP_MASK,
        ],
        dtype=np.int64,
    )


def zeros(length: int) -> np.ndarray:
    return np.zeros((length, N_LIMBS), dtype=np.int64)


# --------------------------------------------------------------- reduction


def reduce(z: np.ndarray) -> np.ndarray:
    """Carry-propagate a lazy 5-limb array (limbs < 2^62) into canonical form.

    Carries run limb 0 -> 4 and the carry out of bit 127 wraps to limb 0 with
    weight 1 (2^127 ≡ 1 mod p); a couple of passes converge because carries
    shrink geometrically.  Mutates and returns ``z``.
    """
    carry = z[:, 0] >> LIMB_BITS
    z[:, 0] &= _MASK
    z[:, 1] += carry
    carry = z[:, 1] >> LIMB_BITS
    z[:, 1] &= _MASK
    z[:, 2] += carry
    carry = z[:, 2] >> LIMB_BITS
    z[:, 2] &= _MASK
    z[:, 3] += carry
    carry = z[:, 3] >> LIMB_BITS
    z[:, 3] &= _MASK
    z[:, 4] += carry
    carry = z[:, 4] >> TOP_BITS
    z[:, 4] &= _TOP_MASK
    # The 2^127 wrap re-enters at limb 0; carries shrink geometrically, so
    # instead of a second full pass, cascade limb by limb until quiet.
    position = 0
    while np.any(carry):
        z[:, position] += carry
        if position < 4:
            carry = z[:, position] >> LIMB_BITS
            z[:, position] &= _MASK
            position += 1
        else:  # pragma: no cover - needs a carry surviving to the top again
            carry = z[:, 4] >> TOP_BITS
            z[:, 4] &= _TOP_MASK
            position = 0
    return _canonicalize(z)


def _canonicalize(z: np.ndarray) -> np.ndarray:
    """Map the residue-p pattern (all ones) to zero; assumes limbs masked."""
    # Cheap pre-screen: the pattern needs a saturated top limb, which random
    # residues hit with probability 2^-23 — skip the full row compare then.
    if not (z[:, 4] == _TOP_MASK).any():
        return z
    full = (z == _P_LIMBS).all(axis=1)
    if full.any():
        z[full] = 0
    return z


def _reduce_wide(z: np.ndarray) -> np.ndarray:
    """Reduce a 9-position schoolbook accumulator into canonical 5 limbs."""
    z[:, 0:4] += z[:, 5:9] << 3
    return reduce(z[:, 0:5])


# ------------------------------------------------------------- field ops


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return reduce(a + b)


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a + (p - b); p's limbs are all-ones so the limbwise difference never
    # borrows for canonical b.
    return reduce(a + (_P_LIMBS - b))


def neg(a: np.ndarray) -> np.ndarray:
    return _canonicalize(_P_LIMBS - a)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise product via schoolbook limb multiply + Mersenne fold."""
    n = a.shape[0]
    z = np.zeros((n, 2 * N_LIMBS - 1), dtype=np.int64)
    for i in range(N_LIMBS):
        z[:, i : i + N_LIMBS] += a[:, i : i + 1] * b
    return _reduce_wide(z)


def scale(a: np.ndarray, scalar: int) -> np.ndarray:
    """Multiply every element by one public scalar."""
    scalar = scalar % PRIME
    if scalar == 0:
        return zeros(a.shape[0])
    if scalar == 1:
        return a.copy()
    if scalar <= _MASK:
        # Single-limb scalar: products stay below 2^52, no fold needed.
        return reduce(a * scalar)
    limbs = scalar_to_limbs(scalar)
    z = np.zeros((a.shape[0], 2 * N_LIMBS - 1), dtype=np.int64)
    for i in range(N_LIMBS):
        if limbs[i]:
            z[:, i : i + N_LIMBS] += a * limbs[i]
    return _reduce_wide(z)


def add_scalar(a: np.ndarray, scalar: int) -> np.ndarray:
    return reduce(a + scalar_to_limbs(scalar))


def beaver_combine(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    e: np.ndarray,
    de: np.ndarray | None = None,
    weight: int = 1,
) -> np.ndarray:
    """``c + d·b + e·a (+ weight·de)`` with one fold and one carry pass.

    Every schoolbook position takes at most 15 limb products (< 2^56) plus
    a canonical limb of ``c``, and the fold adds 8x the high half: below
    2^60, inside :func:`reduce`'s 2^62 input bound.
    """
    z = np.zeros((c.shape[0], 2 * N_LIMBS - 1), dtype=np.int64)
    for i in range(N_LIMBS):
        z[:, i : i + N_LIMBS] += d[:, i : i + 1] * b + e[:, i : i + 1] * a
    z[:, 0:N_LIMBS] += c
    if de is not None:
        for i, w in enumerate(scalar_to_limbs(weight)):
            if w:
                z[:, i : i + N_LIMBS] += de * w
    return _reduce_wide(z)


def is_zero(a: np.ndarray) -> bool:
    """True when every element is the zero residue (canonical input)."""
    return not a.any()


# ----------------------------------------------------- lazy-reduction kernels


def vector_sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Sum several canonical limb arrays with one final carry pass."""
    if not arrays:
        raise SMPCError("vector_sum of zero vectors")
    acc = arrays[0].astype(np.int64, copy=True)
    for count, array in enumerate(arrays[1:], start=2):
        if array.shape[0] != acc.shape[0]:
            raise SMPCError("vector_sum length mismatch")
        acc += array
        if count % LAZY_ADD_LIMIT == 0:  # unreachable in practice; safety net
            reduce(acc)
    return reduce(acc)


def combine_small_weights(weights: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Batched dot products: (P, T) small weights × (T, N, 5) → (P, N, 5).

    The Shamir share-evaluation shape: every party's share is the same
    T-term combination of coefficient vectors under different small integer
    weights (the evaluation-point powers).  One broadcast multiply-add per
    coefficient and a single carry pass over all P·N rows replace P separate
    combinations.  Caller guarantees ``weights.sum(axis=1).max() < 2^36`` so
    limb products accumulate inside int64.
    """
    acc = coeffs[0][None, :, :] * weights[:, 0, None, None]
    for t in range(1, coeffs.shape[0]):
        acc += coeffs[t][None, :, :] * weights[:, t, None, None]
    shape = acc.shape
    return reduce(acc.reshape(-1, N_LIMBS)).reshape(shape)


def linear_combination(
    scalars: Sequence[int], arrays: Sequence[np.ndarray]
) -> np.ndarray:
    """``sum_i scalars[i] * arrays[i]`` with lazy reduction.

    The dot-product shape of Lagrange interpolation and the SPDZ MAC check:
    scalar products accumulate in the 9-position schoolbook domain and a
    single fold + carry pass finishes the job.  Chunks of
    :data:`LAZY_MUL_LIMIT` terms keep the accumulator inside int64.
    """
    if len(scalars) != len(arrays):
        raise SMPCError("linear_combination arity mismatch")
    if not arrays:
        raise SMPCError("linear_combination of zero terms")
    n = arrays[0].shape[0]
    if len(scalars) <= LAZY_MUL_LIMIT and all(
        s <= _MASK or PRIME - s <= _MASK for s in scalars
    ):
        # All scalars are small or small-negative (Shamir point powers,
        # Lagrange weights like p - 1): single-limb products stay below
        # 2^52, so up to 32 terms accumulate in the canonical 5-limb domain
        # with no schoolbook widening.  A small-negative scalar contributes
        # as (p - a) * (p - s), the same residue with small limbs.
        acc: np.ndarray | None = None
        for scalar, array in zip(scalars, arrays):
            if array.shape[0] != n:
                raise SMPCError("linear_combination length mismatch")
            if scalar <= _MASK:
                term = array * scalar
            else:
                term = (_P_LIMBS - array) * (PRIME - scalar)
            acc = term if acc is None else acc + term
        return reduce(acc)
    wide = np.zeros((n, 2 * N_LIMBS - 1), dtype=np.int64)
    total: np.ndarray | None = None
    pending = 0
    for scalar, array in zip(scalars, arrays):
        if array.shape[0] != n:
            raise SMPCError("linear_combination length mismatch")
        limbs = scalar_to_limbs(scalar)
        for i in range(N_LIMBS):
            if limbs[i]:
                wide[:, i : i + N_LIMBS] += array * limbs[i]
        pending += 1
        if pending == LAZY_MUL_LIMIT:
            part = _reduce_wide(wide.copy())
            total = part if total is None else reduce(total + part)
            wide[:] = 0
            pending = 0
    if pending or total is None:
        part = _reduce_wide(wide)
        total = part if total is None else reduce(total + part)
    return total
