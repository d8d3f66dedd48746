"""Arithmetic in the prime field Z_p with p = 2^127 - 1.

All SMPC values are field elements.  The Mersenne prime 2^127 - 1 leaves
enough headroom for fixed-point encodings of statistics (80 magnitude bits,
wide enough for second-moment sums over national-scale caseloads) plus the
statistical-masking bits that secure comparison and truncation need,
matching the parameter regime of real SPDZ deployments.

A :class:`FieldVector` is a list of Python ints, each reduced mod p.  Every
operation is one pass over that list; Python's bignums make the arithmetic
exact, so a seeded run is reproducible element for element.  The vectors
the platform builds are short — a few statistics per key, or a
comparison's dealt mask of 124 elements per compared value — and the cost
of a secure aggregate is the number of passes over them, each reduced mod
p.  That is why the share-wise steps of the online protocols and the dealer
are *fused* here: :func:`beaver_combine`, :func:`sub_concat`,
:func:`macs_match`, :func:`add_scaled`, :func:`select`,
:func:`negate_where`, :func:`add_mask`, :func:`pair_carries` and
:func:`last_share` each do
in one pass, with one reduction per element, what a chain of element-wise
operations did in several.
"""

from __future__ import annotations

import operator
import random
from itertools import chain
from typing import Iterable, Sequence

from repro.errors import SMPCError

#: The field modulus (Mersenne prime 2^127 - 1).
PRIME = (1 << 127) - 1
#: Residues above this are the negatives of small ones (p - 1 is -1).
_HALF = PRIME >> 1


def finv(a: int) -> int:
    """Field multiplicative inverse (Fermat)."""
    if a % PRIME == 0:
        raise SMPCError("zero has no multiplicative inverse")
    return pow(a, PRIME - 2, PRIME)


def random_field_elements(count: int, rng: random.Random) -> list[int]:
    """Draw ``count`` uniform field elements in one batch.

    Stream-identical to ``count`` sequential ``rng.randrange(PRIME)`` calls:
    CPython's ``randrange(n)`` is ``getrandbits(n.bit_length())`` with
    rejection of draws ``>= n``, which for the Mersenne modulus rejects only
    the all-ones pattern (probability 2^-127).  Calling ``getrandbits``
    directly skips ``randrange``'s per-call argument handling, which is the
    bulk of its cost at this batch shape; the regression suite pins the
    equivalence so chaos/trace determinism never depends on which path drew.
    The batch is drawn without a per-draw check; a rejected draw is dropped
    afterwards and the shortfall drawn at the end, which is the order the
    per-draw loop consumes the stream in.
    """
    getrandbits = rng.getrandbits
    out = [getrandbits(127) for _ in range(count)]
    if PRIME in out:  # probability ~count * 2^-127
        out = [value for value in out if value != PRIME]
        while len(out) < count:
            value = getrandbits(127)
            if value != PRIME:
                out.append(value)
    return out


def random_bit_elements(count: int, rng: random.Random) -> list[int]:
    """Draw ``count`` uniform bits, stream-identical to ``rng.randrange(2)``.

    ``randrange(2)`` draws ``getrandbits(2)`` (k = n.bit_length() = 2) and
    rejects values >= 2, so half the draws reject once on average; the loop
    below replicates that exactly.
    """
    getrandbits = rng.getrandbits
    out = []
    append = out.append
    for _ in range(count):
        value = getrandbits(2)
        while value >= 2:
            value = getrandbits(2)
        append(value)
    return out


class FieldVector:
    """A vector of field elements with element-wise operations.

    ``elements`` is the vector itself, a list of Python ints in ``[0, p)``:
    a caller that mutates it mutates the vector.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[int]) -> None:
        self.elements: list[int] = [int(e) % PRIME for e in elements]

    @classmethod
    def random(cls, length: int, rng: random.Random) -> "FieldVector":
        """Uniform random vector (batched draw, see :func:`random_field_elements`)."""
        return cls._raw(random_field_elements(length, rng))

    @classmethod
    def _raw(cls, elements: list[int]) -> "FieldVector":
        """Wrap a list of already-reduced elements without copying it."""
        vector = cls.__new__(cls)
        vector.elements = elements
        return vector

    # ------------------------------------------------------------- protocol

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldVector):
            return NotImplemented
        return self.elements == other.elements

    def _check_length(self, other: "FieldVector") -> None:
        if len(self) != len(other):
            raise SMPCError(f"length mismatch: {len(self)} vs {len(other)}")

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "FieldVector") -> "FieldVector":
        self._check_length(other)
        return FieldVector._raw(
            [(a + b) % PRIME for a, b in zip(self.elements, other.elements)]
        )

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        self._check_length(other)
        return FieldVector._raw(
            [(a - b) % PRIME for a, b in zip(self.elements, other.elements)]
        )

    def __mul__(self, other: "FieldVector") -> "FieldVector":
        self._check_length(other)
        return FieldVector._raw(
            [(a * b) % PRIME for a, b in zip(self.elements, other.elements)]
        )

    def scale(self, scalar: int) -> "FieldVector":
        scalar = _centered(scalar % PRIME)  # p - 1 multiplies as -1, not as a 127-bit int
        return FieldVector._raw([(a * scalar) % PRIME for a in self.elements])

    # -------------------------------------------------------------- queries

    def take(self, indices: Sequence[int] | slice) -> "FieldVector":
        """Gather elements at ``indices`` — an index sequence or a slice.

        The reshuffle primitive of the flat comparison protocols: bit-matrix
        columns and carry-tree node blocks are picked out of one long vector.
        """
        if isinstance(indices, slice):
            return FieldVector._raw(self.elements[indices])
        return FieldVector._raw(list(map(self.elements.__getitem__, indices)))


def concat(vectors: Sequence[FieldVector]) -> FieldVector:
    """Concatenate vectors end to end (the inverse of slicing with ``take``)."""
    if not vectors:
        raise SMPCError("concat of zero vectors")
    out: list[int] = []
    for vector in vectors:
        out.extend(vector.elements)
    return FieldVector._raw(out)


def vector_sum(vectors: Iterable[FieldVector]) -> FieldVector:
    """Element-wise sum of several equal-length vectors.

    Uses lazy modular reduction: the element-wise bignum sums are exact, so
    one pass with one ``% PRIME`` per element replaces one pass and one
    reduction per vector.  This is the SMPC aggregation hot path — every
    share import and every full-threshold reconstruction funnels through
    here.
    """
    vectors = list(vectors)
    if not vectors:
        raise SMPCError("vector_sum of zero vectors")
    _check_lengths(vectors, "vector_sum")
    return FieldVector._raw(
        [value % PRIME for value in _column_sums([v.elements for v in vectors])]
    )


def linear_combination(scalars: Sequence[int], vectors: Sequence[FieldVector]) -> FieldVector:
    """``sum_i scalars[i] * vectors[i]`` — the Lagrange/MAC dot-product shape.

    One pass with one reduction per element, each scalar taken as its
    centered residue (a Lagrange weight p - 1 multiplies as -1).
    """
    if len(scalars) != len(vectors):
        raise SMPCError("linear_combination arity mismatch")
    if not vectors:
        raise SMPCError("linear_combination of zero terms")
    _check_lengths(vectors, "linear_combination")
    terms = [
        map(_centered(scalar % PRIME).__mul__, vector.elements)
        for scalar, vector in zip(scalars, vectors)
    ]
    return FieldVector._raw([value % PRIME for value in _column_sums(terms)])


# ------------------------------------------------------------ fused share steps
#
# Each function below is one share-wise step of the online protocols or the
# dealer, applied to ONE party share (or MAC share): one pass over the
# elements, one reduction per element, where the unfused composition of
# FieldVector operations made one pass and one reduction per operation.


def _centered(residue: int) -> int:
    """The representative of a residue in (-p/2, p/2]: small negatives stay small."""
    return residue if residue <= _HALF else residue - PRIME


def _check_lengths(vectors: Sequence[FieldVector], what: str) -> None:
    if len({len(v) for v in vectors}) > 1:
        raise SMPCError(f"{what} length mismatch")


def _column_sums(columns: Sequence[Iterable[int]]) -> Iterable[int]:
    """Unreduced element-wise sums of equal-length integer columns (lazy)."""
    sums = columns[0]
    for column in columns[1:]:
        sums = map(operator.add, sums, column)
    return sums


def _check_bits(vector: FieldVector, bits: Sequence[int]) -> None:
    if len(bits) != len(vector):
        raise SMPCError(f"length mismatch: {len(vector)} vs {len(bits)} public bits")


def beaver_combine(
    c: FieldVector,
    a: FieldVector,
    b: FieldVector,
    d: FieldVector,
    e: FieldVector,
    de: FieldVector | None = None,
    weight: int = 1,
) -> FieldVector:
    """``c + d·b + e·a``, plus ``weight·de`` when ``de`` is given.

    One share of a Beaver product ``x·y`` from the share ``(a, b, c)`` of a
    triple and the opened masks ``d = x - a``, ``e = y - b``.  The public
    product ``de = d·e`` joins every share that carries public constants —
    party 0's value share under full threshold (weight 1), every Shamir
    share (weight 1), and MAC share ``i`` (weight ``alpha_i``).
    """
    vectors = [c, a, b, d, e] + ([] if de is None else [de])
    _check_lengths(vectors, "beaver_combine")
    weight %= PRIME
    columns = [v.elements for v in vectors]
    if de is None:
        return FieldVector._raw(
            [(ci + di * bi + ei * ai) % PRIME for ci, ai, bi, di, ei in zip(*columns)]
        )
    return FieldVector._raw(
        [
            (ci + di * bi + ei * ai + weight * fi) % PRIME
            for ci, ai, bi, di, ei, fi in zip(*columns)
        ]
    )


def sub_concat(lefts: Sequence[FieldVector], rights: Sequence[FieldVector]) -> FieldVector:
    """``(lefts[0] - rights[0]) ‖ (lefts[1] - rights[1]) ‖ ...`` in one pass.

    The masked differences ``(x - a) ‖ (y - b)`` a Beaver product opens.
    """
    if len(lefts) != len(rights) or not lefts:
        raise SMPCError("sub_concat needs one right operand per left operand")
    for left, right in zip(lefts, rights):
        _check_lengths([left, right], "sub_concat")
    return FieldVector._raw(
        [
            (x - y) % PRIME
            for x, y in zip(
                chain.from_iterable(v.elements for v in lefts),
                chain.from_iterable(v.elements for v in rights),
            )
        ]
    )


def macs_match(macs: Sequence[FieldVector], opened: FieldVector, alpha: int) -> bool:
    """Whether ``sum_i macs[i] == alpha·opened`` element-wise.

    The SPDZ MAC check of an opened value, with ``alpha`` the sum of the
    parties' key shares: the same relation as every party's
    ``mac_i - alpha_i·opened`` summing to zero, in one pass.
    """
    _check_lengths([opened, *macs], "macs_match")
    alpha %= PRIME
    total = _column_sums([m.elements for m in macs])
    return not any(
        [(value - alpha * x) % PRIME for value, x in zip(total, opened.elements)]
    )


def add_scaled(vector: FieldVector, other: FieldVector, scalar: int) -> FieldVector:
    """``vector + scalar·other``: a public vector entering a MAC share."""
    _check_lengths([vector, other], "add_scaled")
    scalar %= PRIME
    return FieldVector._raw(
        [(v + scalar * o) % PRIME for v, o in zip(vector.elements, other.elements)]
    )


def select(vector: FieldVector, bits: Sequence[int]) -> FieldVector:
    """``vector`` where the public bit is 1, else 0 (a product with 0/1)."""
    _check_bits(vector, bits)
    return FieldVector._raw([v if bit else 0 for v, bit in zip(vector.elements, bits)])


def negate_where(vector: FieldVector, bits: Sequence[int], offset: int = 0) -> FieldVector:
    """``offset - vector`` where the public bit is 1, else ``vector``.

    A product with public ±1 plus a public 0/1-multiple of ``offset``,
    without a 127-bit multiplication: how a shared bit is XORed with public
    bits (``offset`` 1 on the shares carrying constants, ``alpha_i`` on MAC
    share ``i``).
    """
    _check_bits(vector, bits)
    offset %= PRIME
    return FieldVector._raw(
        [(offset - v) % PRIME if bit else v for v, bit in zip(vector.elements, bits)]
    )


def add_mask(x: FieldVector, bits: FieldVector, high: FieldVector, low_bits: int) -> FieldVector:
    """``x + r`` for a dealt comparison mask ``r = sum_i 2^i r_i + 2^k·high``.

    ``bits`` holds ``r``'s ``k = low_bits`` low bits as one block of
    ``len(x)`` elements per bit, the even bits first, then the odd bits
    (:class:`~repro.smpc.triples.ComparisonMask`); element ``j``'s bits are
    the stride-``len(x)`` slice from ``j``.  One pass over the rows, with
    lazy reduction: at most ``k + 2`` terms below 2^254 per element.
    """
    rows = len(x)
    if len(bits) != rows * low_bits or len(high) != rows:
        raise SMPCError(f"add_mask: a {low_bits}-bit mask does not fit {rows} rows")
    weights = [1 << i for i in range(0, low_bits, 2)] + [1 << i for i in range(1, low_bits, 2)]
    flat, shift = bits.elements, 1 << low_bits
    return FieldVector._raw(
        [
            (value + sum(map(operator.mul, flat[j::rows], weights)) + shift * top) % PRIME
            for j, (value, top) in enumerate(zip(x.elements, high.elements))
        ]
    )


def pair_carries(
    r_lo: FieldVector,
    r_hi: FieldVector,
    q: FieldVector,
    codes: Sequence[int],
    offset: int = 0,
    skip: int = 0,
) -> tuple[FieldVector, FieldVector]:
    """The first carry level of a comparison against a public ``c``: the
    combined ``(g, p)`` of each bit pair, linear in the shared bits.

    ``r_lo``, ``r_hi`` and ``q = r_hi·r_lo`` are shares of a pair's mask
    bits and their dealt product; ``codes`` holds ``2·c̄_hi + c̄_lo`` per
    pair, with ``c̄ = 1 - c``.  Then ``g = c̄_hi r_hi + c̄_hi c̄_lo r_lo +
    c̄_lo(1 - 2c̄_hi) q`` and ``p = c̄_hi c̄_lo + c̄_lo(1 - 2c̄_hi) r_hi +
    c̄_hi(1 - 2c̄_lo) r_lo + (1 - 2c̄_hi)(1 - 2c̄_lo) q``: every coefficient
    is 0 or ±1, so each code picks a sum.  The constant ``c̄_hi c̄_lo``
    enters as ``offset`` (as in :func:`negate_where`).  ``p`` starts at
    pair position ``skip``.
    """
    _check_lengths([r_lo, r_hi, q], "pair_carries")
    _check_bits(q, codes)
    offset %= PRIME
    columns = [r_lo.elements, r_hi.elements, q.elements, codes]
    g = [
        0 if code == 0 else qv if code == 1 else hi if code == 2 else (hi + lo - qv) % PRIME
        for lo, hi, qv, code in zip(*columns)
    ]
    p = [
        qv if code == 0
        else (hi - qv) % PRIME if code == 1
        else (lo - qv) % PRIME if code == 2
        else (offset - hi - lo + qv) % PRIME
        for lo, hi, qv, code in zip(*(column[skip:] for column in columns))
    ]
    return FieldVector._raw(g), FieldVector._raw(p)


def last_share(total: FieldVector, shares: Sequence[FieldVector], scalar: int = 1) -> FieldVector:
    """``scalar·total - sum(shares)``: the share that completes a sharing.

    The dealer's last value share (``scalar`` 1) and last MAC share
    (``scalar`` alpha) of an additive sharing of ``total``.
    """
    if not shares:
        raise SMPCError("last_share needs the other shares")
    _check_lengths([total, *shares], "last_share")
    scalar %= PRIME
    subtrahends = _column_sums([s.elements for s in shares])
    return FieldVector._raw(
        [(scalar * t - s) % PRIME for t, s in zip(total.elements, subtrahends)]
    )
