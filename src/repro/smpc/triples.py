"""The offline phase: a trusted dealer producing correlated randomness.

SPDZ runs "a lot of the required SMPC computations in an offline phase"
(paper §2): multiplication triples and the statistical masks of secure
comparisons are produced before the data-dependent online phase starts.
Real SPDZ generates them with somewhat-homomorphic encryption; we substitute
a trusted dealer, which preserves the online protocol unchanged and keeps the
offline/online cost split measurable.

A comparison mask (:class:`ComparisonMask`) is a uniform ``r`` on
``[0, 2^mask_bits)`` dealt in three parts: its ``k`` low bits shared one by
one, the product ``r_{2j+1}·r_{2j}`` of each adjacent pair of those bits, and
``r >> k`` as one shared integer.  The pair products are offline products of
the dealer's own bits — the same trust as a triple; real SPDZ pays one
offline multiplication for each.  They make the first level of the online
carry tree linear (Catrina & de Hoogh, SCN 2010, deal the bitwise-shared
mask the same way).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.errors import SMPCError
from repro.smpc import additive, shamir
from repro.smpc.field import FieldVector, random_bit_elements

S = TypeVar("S")


@dataclass
class AdditiveTriple:
    """Authenticated Beaver triple: c = a * b, all SPDZ-shared."""

    a: additive.AdditiveShared
    b: additive.AdditiveShared
    c: additive.AdditiveShared


@dataclass
class ShamirTriple:
    """Beaver triple under Shamir sharing."""

    a: shamir.ShamirShared
    b: shamir.ShamirShared
    c: shamir.ShamirShared


@dataclass
class ComparisonMask(Generic[S]):
    """The dealt mask ``r = sum_i 2^i r_i + 2^k high`` of one batched
    comparison over ``rows`` values.

    ``bits`` holds the ``k`` low bits of every row, one block of ``rows``
    per bit: the even bits 0, 2, 4, ... first, then the odd bits 1, 3, ....
    ``products`` holds ``r_{2j+1}·r_{2j}`` for each of the ``k // 2`` bit
    pairs, block ``j`` for pair ``j``; ``high`` is ``r >> k``, one element
    per row.
    """

    bits: S
    products: S
    high: S


@dataclass
class OfflineUsage:
    """Meter for offline-phase production (for the E4 benchmark)."""

    triples: int = 0
    #: Shared mask bits, ``k`` per compared value.
    random_bits: int = 0
    #: Shared products of adjacent mask-bit pairs, ``k // 2`` per value.
    bit_products: int = 0
    #: Shared high parts ``r >> k`` of the masks, one per value.
    mask_integers: int = 0
    elements_dealt: int = 0


class TrustedDealer:
    """Produces triples and comparison masks for either scheme."""

    def __init__(self, n_parties: int, seed: int | None = None) -> None:
        if n_parties < 2:
            raise SMPCError("SMPC needs at least two computing parties")
        self.n_parties = n_parties
        self._rng = random.Random(seed)
        self.usage = OfflineUsage()
        self.alpha, self.alpha_shares = additive.share_alpha(n_parties, self._rng)

    # -------------------------------------------------------------- additive

    def additive_triple(self, length: int) -> AdditiveTriple:
        a = FieldVector.random(length, self._rng)
        b = FieldVector.random(length, self._rng)
        c = a * b
        triple = AdditiveTriple(
            additive.share_vector(a, self.n_parties, self.alpha, self._rng),
            additive.share_vector(b, self.n_parties, self.alpha, self._rng),
            additive.share_vector(c, self.n_parties, self.alpha, self._rng),
        )
        self.usage.triples += length
        # value + MAC share for each of a, b, c, at each party
        self.usage.elements_dealt += 6 * self.n_parties * length
        return triple

    def additive_comparison_mask(
        self, rows: int, low_bits: int, mask_bits: int
    ) -> ComparisonMask[additive.AdditiveShared]:
        mask = self._comparison_mask(rows, low_bits, mask_bits)
        shared = additive.share_vector(mask, self.n_parties, self.alpha, self._rng)
        self.usage.elements_dealt += 2 * self.n_parties * len(mask)
        return _split_mask(additive.take, shared, rows, low_bits)

    # ---------------------------------------------------------------- shamir

    def shamir_triple(self, length: int, threshold: int) -> ShamirTriple:
        a = FieldVector.random(length, self._rng)
        b = FieldVector.random(length, self._rng)
        c = a * b
        triple = ShamirTriple(
            shamir.share_vector(a, self.n_parties, threshold, self._rng),
            shamir.share_vector(b, self.n_parties, threshold, self._rng),
            shamir.share_vector(c, self.n_parties, threshold, self._rng),
        )
        self.usage.triples += length
        self.usage.elements_dealt += 3 * self.n_parties * length
        return triple

    def shamir_comparison_mask(
        self, rows: int, low_bits: int, mask_bits: int, threshold: int
    ) -> ComparisonMask[shamir.ShamirShared]:
        mask = self._comparison_mask(rows, low_bits, mask_bits)
        shared = shamir.share_vector(mask, self.n_parties, threshold, self._rng)
        self.usage.elements_dealt += self.n_parties * len(mask)
        return _split_mask(shamir.take, shared, rows, low_bits)

    # ---------------------------------------------------------------- masks

    def _comparison_mask(self, rows: int, low_bits: int, mask_bits: int) -> FieldVector:
        """The plain values of a :class:`ComparisonMask`, laid end to end:
        bits, pair products, high parts.  Uniform bits and a uniform
        ``mask_bits - low_bits``-bit high part make ``r`` uniform on
        ``[0, 2^mask_bits)``."""
        if not 0 < low_bits <= mask_bits:
            raise SMPCError(f"mask of {mask_bits} bits cannot split at bit {low_bits}")
        bits = random_bit_elements(rows * low_bits, self._rng)
        pairs = low_bits // 2
        odd_start = (low_bits - pairs) * rows
        products = list(map(int.__mul__, bits[: pairs * rows], bits[odd_start:]))
        getrandbits = self._rng.getrandbits
        high = [getrandbits(mask_bits - low_bits) for _ in range(rows)]
        self.usage.random_bits += rows * low_bits
        self.usage.bit_products += rows * pairs
        self.usage.mask_integers += rows
        return FieldVector._raw(bits + products + high)

    @property
    def rng(self) -> random.Random:
        return self._rng


def _split_mask(take, shared: S, rows: int, low_bits: int) -> ComparisonMask[S]:
    """Cut one sharing of bits ‖ products ‖ high parts into a mask."""
    bits_end = rows * low_bits
    products_end = bits_end + rows * (low_bits // 2)
    return ComparisonMask(
        take(shared, slice(0, bits_end)),
        take(shared, slice(bits_end, products_end)),
        take(shared, slice(products_end, None)),
    )
