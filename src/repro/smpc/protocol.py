"""The online SMPC protocols: FT (SPDZ-style) and Shamir.

Both protocols expose the same operation set — input, linear ops, Beaver
multiplication, open, secure comparison (LTZ), min/max folds, and disjoint
union — over their respective share representations.  A
:class:`CommunicationMeter` counts rounds and field elements exchanged; the
E4 benchmark derives the paper's FT-vs-Shamir cost ordering from it and from
wall-clock time.

Secure comparison uses the statistically-masked-open construction of
Catrina & de Hoogh (SCN 2010): to test ``x < 0`` for |x| < 2^L, open ``c = x
+ 2^L + r`` where ``r`` is a dealt random of L + kappa bits whose L low bits
are shared bitwise; then ``floor((c-r)/2^L) = C - R - u`` with ``C, c'``
public digits of ``c``, ``R = r >> L`` (dealt as one shared integer), and
``u = BitLT(c', r')``.  As in MP-SPDZ's ``less_than(k)``, the width L is an
argument and kappa is fixed: a caller that knows a bound on its operands
(:meth:`Protocol.comparison_width`) pays for that many bits, and one that
does not pays for :attr:`Protocol.comparison_bits`.

Everything on that path is batched.  The dealer's mask for a whole operand
vector is one :class:`~repro.smpc.triples.ComparisonMask` (a block of rows
per bit); ``r`` is one public-weight combination of its blocks; and BitLT
combines the per-bit (generate, propagate) pairs with a log-depth carry
tree.  Its first level is linear — the dealer also deals the product of
each adjacent bit pair — and every later level is one Beaver multiplication
over all its nodes, instead of a bit-by-bit chain.  Min/max run as a
pairwise tournament whose every level is one such comparison over all
surviving pairs.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Generic, Sequence, TypeVar

import numpy as np

from repro.errors import SMPCError
from repro.smpc import additive, shamir
from repro.smpc.encoding import STATISTICAL_BITS, FixedPointEncoder
from repro.smpc.field import PRIME, FieldVector, vector_sum
from repro.smpc.triples import ComparisonMask, TrustedDealer

S = TypeVar("S")


@dataclass
class CommunicationMeter:
    """Rounds and field elements exchanged during the online phase."""

    rounds: int = 0
    elements: int = 0

    def record(self, rounds: int, elements: int) -> None:
        self.rounds += rounds
        self.elements += elements

    @property
    def bytes_sent(self) -> int:
        """Approximate bytes (16 bytes per 127-bit field element)."""
        return self.elements * 16


class Protocol(abc.ABC, Generic[S]):
    """Common operation set over a share representation ``S``."""

    name: str = "abstract"
    #: The sharing module (:mod:`additive` or :mod:`shamir`) whose local
    #: operators act on this protocol's share representation.
    _sharing: Any = None

    def __init__(
        self,
        n_parties: int,
        dealer: TrustedDealer | None = None,
        encoder: FixedPointEncoder | None = None,
        seed: int | None = None,
    ) -> None:
        if n_parties < 2:
            raise SMPCError("SMPC needs at least two computing parties")
        self.n_parties = n_parties
        self.dealer = dealer or TrustedDealer(n_parties, seed)
        if self.dealer.n_parties != n_parties:
            raise SMPCError("dealer was built for a different party count")
        self.encoder = encoder or FixedPointEncoder()
        self.meter = CommunicationMeter()
        self._rng = random.Random(seed)
        # Truncation parameters: post-multiplication values carry two scale
        # factors, so the magnitude bound is wider and the statistical slack
        # narrower (still 2^-28 hiding within the 127-bit field).
        self.truncation_bits = min(self.comparison_bits + self.encoder.fractional_bits, 98)
        self.truncation_mask_bits = min(
            self.truncation_bits + STATISTICAL_BITS, PRIME.bit_length() - 1
        )

    @property
    def comparison_bits(self) -> int:
        """The full comparison width: every fixed-point value and every
        pairwise difference of two lies below 2^comparison_bits."""
        return self.encoder.magnitude_bits + 2

    def comparison_width(self, magnitude: int) -> int:
        """The width ``L = ceil(log2(magnitude)) + 1`` for operands with
        |x| <= ``magnitude`` (an integer >= 1), capped at the full width."""
        if magnitude < 1:
            raise SMPCError(f"comparison magnitude must be >= 1, got {magnitude}")
        return min((magnitude - 1).bit_length() + 1, self.comparison_bits)

    # ----------------------------------------------------------- primitives

    @abc.abstractmethod
    def input_vector(self, values: FieldVector) -> S:
        """Secret-share a vector held by one input party."""

    @abc.abstractmethod
    def open(self, shared: S) -> FieldVector:
        """Reveal a shared vector to every party (with MAC check under FT)."""

    @abc.abstractmethod
    def add_public(self, a: S, public: FieldVector) -> S: ...

    # Local (communication-free) operations are share-wise and differ only in
    # the share container, so they go straight to the sharing module.

    def add(self, a: S, b: S) -> S:
        return self._sharing.add(a, b)

    def sub(self, a: S, b: S) -> S:
        return self._sharing.sub(a, b)

    def scale(self, a: S, scalar: int) -> S:
        return self._sharing.scale(a, scalar)

    @abc.abstractmethod
    def _xor_public(self, a: S, bits: Sequence[int]) -> S:
        """Shared bits XOR public bits (``1 - a`` where the bit is 1)."""

    def _take(self, a: S, indices) -> S:
        """The sharing of ``a``'s elements at ``indices`` (sequence, index
        array or slice)."""
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        return self._sharing.take(a, indices)

    def _concat(self, parts: Sequence[S]) -> S:
        """The sharing of several shared vectors laid end to end."""
        return self._sharing.concat(parts)

    @abc.abstractmethod
    def _comparison_mask(self, rows: int, low_bits: int, mask_bits: int) -> ComparisonMask[S]:
        """A dealer-supplied mask of ``mask_bits`` bits per row, split at
        ``low_bits``."""

    @abc.abstractmethod
    def _pair_carries(self, r_lo: S, r_hi: S, q: S, codes: Sequence[int], skip: int) -> tuple[S, S]:
        """The carry tree's linear first level (:func:`field.pair_carries`)."""

    @abc.abstractmethod
    def _triple(self, length: int):
        """A dealer-supplied Beaver triple ``(a, b, c = a * b)`` of ``length``."""

    @abc.abstractmethod
    def _beaver_combine(self, triple, d: FieldVector, e: FieldVector) -> S:
        """``c + d*b + e*a + d*e`` from a triple and the opened masks."""

    def mul(self, a: S, b: S) -> S:
        """Beaver multiplication: one triple, one masked open of ``d || e``."""
        length = len(a)
        triple = self._triple(length)
        opened = self.open(self._sharing.sub_concat([a, b], [triple.a, triple.b]))
        d = opened.take(slice(0, length))
        e = opened.take(slice(length, None))
        return self._beaver_combine(triple, d, e)

    # ------------------------------------------------------------ aggregates

    @abc.abstractmethod
    def sum_inputs(self, inputs: Sequence[S]) -> S:
        """Element-wise sum of several parties' shared vectors (linear)."""

    def ltz(self, x: S, bits: int | None = None) -> S:
        """Element-wise [x < 0] as a shared 0/1 vector.

        Operands must be bounded: |x| < 2^bits.  ``bits`` defaults to
        :attr:`comparison_bits`, which holds for fixed-point encoded values
        and their pairwise differences.  The mask has ``bits`` +
        STATISTICAL_BITS bits and BitLT runs over its ``bits`` low bits, so
        a narrower bound buys fewer dealt bits and a shallower carry tree.
        """
        L = self.comparison_bits if bits is None else bits
        if not 1 <= L <= self.comparison_bits:
            raise SMPCError(f"comparison width {L} outside [1, {self.comparison_bits}]")
        # floor((x + 2^L) / 2^L) is 1 for x >= 0 and 0 for x < 0.
        sign = self._shifted_floor(x, L, L + STATISTICAL_BITS, L)
        return self._xor_public(sign, [1] * len(x))  # 1 - sign

    def truncate(self, x: S, fractional_bits: int | None = None) -> S:
        """Secure floor division by 2^f (fixed-point rescaling after a
        multiplication).

        The same masked open as :meth:`ltz` with the split at bit ``f``
        instead of bit ``L``, so BitLT runs over ``f`` bits.  Exact floor
        semantics: each truncation costs at most one unit of the fixed-point
        resolution.
        """
        f = self.encoder.fractional_bits if fractional_bits is None else fractional_bits
        L = self.truncation_bits
        floored = self._shifted_floor(x, L, self.truncation_mask_bits, f)
        # remove the 2^(L-f) offset introduced by the positivity shift
        return self.add_public(floored, _constant_vector(PRIME - (1 << (L - f)), len(x)))

    def _shifted_floor(self, x: S, magnitude_bits: int, mask_bits: int, low_bits: int) -> S:
        """``floor((x + 2^magnitude_bits) / 2^low_bits)`` for |x| < 2^magnitude_bits.

        Open ``c = x + 2^L + r`` under a dealt statistical mask ``r`` of
        ``mask_bits`` bits; then ``floor((c - r) / 2^k) = (c >> k) - (r >>
        k) - [c mod 2^k < r mod 2^k]``, share-linear except for the BitLT.
        ``r >> k`` is dealt as one shared integer, ``r mod 2^k`` bit by bit.
        """
        length = len(x)
        mask = self._comparison_mask(length, low_bits, mask_bits)
        masked = self.add_public(
            self._sharing.add_mask(x, mask.bits, mask.high, low_bits),
            _constant_vector(1 << magnitude_bits, length),
        )
        c_public = self.open(masked).elements
        step = 1 << low_bits
        borrow = self._bit_lt([c % step for c in c_public], mask, low_bits)
        return self.add_public(
            self.scale(self.add(mask.high, borrow), PRIME - 1),
            FieldVector._raw([c // step for c in c_public]),
        )

    def _bit_lt(self, public_values: list[int], mask: ComparisonMask[S], n_bits: int) -> S:
        """[public < shared] over the ``n_bits`` dealt low bits of each mask.

        Bit ``i`` contributes a generate/propagate pair ``g_i = r_i (1 - c_i)``
        and ``p_i = 1 - (r_i xor c_i) = r_i xor (1 - c_i)``, both share-linear
        because ``c`` is public.  A run of bits compares as ``(g, p)_hi o
        (g, p)_lo = (g_hi + p_hi g_lo, p_hi p_lo)``, which is associative, so
        adjacent runs are combined pairwise.  The first level combines bits
        ``2j + 1`` and ``2j``: its only products are ``r_{2j+1} r_{2j}``,
        which the dealer dealt, so it is linear (:func:`field.pair_carries`);
        an odd top bit stays a node of its own.  Every later level is ONE
        Beaver multiplication over all its nodes, so the online depth is
        ceil(log2(n_bits)) - 1.  The run that holds bit 0 is always a low
        operand, so its ``p`` is never consumed and never computed.  Vectors
        are node-major: block ``k`` holds node ``k`` of every element; ``p``
        starts at node 1.
        """
        n = len(public_values)
        pairs = n_bits // 2
        nodes = n_bits - pairs  # after the first level
        if n_bits % 2:
            top = slice(pairs * n, nodes * n)  # the top bit is the last even bit
            not_c = [1 - ((v >> (n_bits - 1)) & 1) for v in public_values]
            r_top = self._take(mask.bits, top)
            g_top = self._sharing.select(r_top, not_c)
            if not pairs:
                return g_top
        # 2 (1 - c_{2j+1}) + (1 - c_{2j}) for every pair j, node-major.
        codes = [3 - ((v >> shift) & 3) for shift in range(0, 2 * pairs, 2) for v in public_values]
        g, p = self._pair_carries(
            self._take(mask.bits, slice(0, pairs * n)),
            self._take(mask.bits, slice(nodes * n, None)),
            mask.products,
            codes,
            n,
        )
        if n_bits % 2:
            g = self._concat([g, g_top])
            p = self._concat([p, self._xor_public(r_top, not_c)])
        while nodes > 1:
            pairs = nodes // 2
            # at[k]: where node k sits in g; node k >= 1 sits at at[k - 1] in p.
            at = np.arange(nodes * n).reshape(nodes, n)
            g_lo, g_hi = at[0 : 2 * pairs : 2].ravel(), at[1 : 2 * pairs : 2].ravel()
            p_hi = at[0 : 2 * pairs - 1 : 2].ravel()  # p of nodes 1, 3, 5, ...
            p_lo = at[1 : 2 * pairs - 1 : 2].ravel()  # p of nodes 2, 4, ... (not 0)
            # p_hi * g_lo for every pair, then p_hi * p_lo for pairs 1, 2, ...
            products = self.mul(
                self._take(p, np.concatenate([p_hi, p_hi[n:]])),
                self._concat([self._take(g, g_lo), self._take(p, p_lo)]),
            )
            split = pairs * n
            unpaired = slice(2 * split, None)  # the odd node out, if any
            g = self._concat(
                [
                    self.add(self._take(g, g_hi), self._take(products, slice(0, split))),
                    self._take(g, unpaired),
                ]
            )
            p = self._concat(
                [
                    self._take(products, slice(split, None)),
                    self._take(p, slice(2 * split - n, None)),
                ]
            )
            nodes -= pairs
        return g

    def mul_fixed_point(self, a: S, b: S) -> S:
        """Multiply two fixed-point sharings and rescale back to one scale."""
        return self.truncate(self.mul(a, b))

    def product_fixed_point(self, inputs: Sequence[S]) -> S:
        """Element-wise fixed-point product fold with per-step truncation."""
        if not inputs:
            raise SMPCError("product of zero inputs")
        total = inputs[0]
        for item in inputs[1:]:
            total = self.mul_fixed_point(total, item)
        return total

    def minimum_inputs(self, inputs: Sequence[S], bits: int | None = None) -> S:
        """Element-wise minimum as a pairwise tournament.

        Every level compares all surviving pairs in one batched
        :meth:`ltz`: ``min(a, b) = b + [a < b] * (a - b)``.  ``bits`` is
        the width of those differences (|a - b| < 2^bits).
        """
        if not inputs:
            raise SMPCError("minimum of zero inputs")
        survivors = list(inputs)
        length = len(survivors[0])
        while len(survivors) > 1:
            paired = len(survivors) - len(survivors) % 2
            b = self._concat(survivors[1:paired:2])
            diff = self.sub(self._concat(survivors[0:paired:2]), b)
            smaller = self.add(b, self.mul(self.ltz(diff, bits), diff))
            survivors = [
                self._take(smaller, slice(k, k + length))
                for k in range(0, len(smaller), length)
            ] + survivors[paired:]
        return survivors[0]

    def maximum_inputs(self, inputs: Sequence[S]) -> S:
        """Element-wise maximum: ``max(x) = -min(-x)``."""
        if not inputs:
            raise SMPCError("maximum of zero inputs")
        negated = [self.scale(item, PRIME - 1) for item in inputs]
        return self.scale(self.minimum_inputs(negated), PRIME - 1)

    def union_width(self, count: int) -> int:
        """The comparison width of a union of ``count`` 0/1 vectors:
        ``sum - 1`` lies in [-1, count - 1]."""
        return self.comparison_width(max(count - 1, 1))

    def union_inputs(self, inputs: Sequence[S]) -> S:
        """Disjoint union of 0/1 membership vectors: [sum >= 1], compared
        at :meth:`union_width` bits."""
        total = self.sum_inputs(inputs)
        length = len(total)
        # sum >= 1  <=>  not (sum - 1 < 0)
        shifted = self.add_public(total, _constant_vector(PRIME - 1, length))
        sign = self.ltz(shifted, self.union_width(len(inputs)))
        return self._xor_public(sign, [1] * length)


def _constant_vector(value: int, length: int) -> FieldVector:
    return FieldVector([value % PRIME] * length)


# ------------------------------------------------------------------------ FT


class FTProtocol(Protocol[additive.AdditiveShared]):
    """Full-threshold SPDZ-style protocol: secure with abort against an
    active-malicious majority, at the cost of MACs on every share and MAC
    checks (extra rounds) on every open."""

    name = "full_threshold"
    _sharing = additive

    def input_vector(self, values: FieldVector) -> additive.AdditiveShared:
        shared = additive.share_vector(values, self.n_parties, self.dealer.alpha, self._rng)
        # Input sharing: the input party sends one share (+MAC) to each party.
        self.meter.record(rounds=1, elements=2 * self.n_parties * len(values))
        return shared

    def open(self, shared: additive.AdditiveShared) -> FieldVector:
        opened = additive.reconstruct(shared)
        additive.check_macs(shared, opened, self.dealer.alpha_shares)
        # Broadcast of shares + MAC-check commit and open rounds.
        self.meter.record(rounds=3, elements=3 * self.n_parties * len(opened))
        return opened

    def add_public(self, a, public: FieldVector):
        return additive.add_public(a, public, self.dealer.alpha_shares)

    def _xor_public(self, a, bits):
        return additive.xor_public(a, bits, self.dealer.alpha_shares)

    def sum_inputs(self, inputs: Sequence[additive.AdditiveShared]) -> additive.AdditiveShared:
        if not inputs:
            raise SMPCError("sum of zero inputs")
        if len(inputs) == 1:
            return inputs[0]
        return additive.AdditiveShared(
            [vector_sum([inp.shares[p] for inp in inputs]) for p in range(self.n_parties)],
            [vector_sum([inp.macs[p] for inp in inputs]) for p in range(self.n_parties)],
        )

    def _comparison_mask(self, rows, low_bits, mask_bits):
        return self.dealer.additive_comparison_mask(rows, low_bits, mask_bits)

    def _pair_carries(self, r_lo, r_hi, q, codes, skip):
        return additive.pair_carries(r_lo, r_hi, q, codes, skip, self.dealer.alpha_shares)

    def _triple(self, length: int):
        return self.dealer.additive_triple(length)

    def _beaver_combine(self, triple, d, e):
        return additive.beaver_combine(
            triple.a, triple.b, triple.c, d, e, self.dealer.alpha_shares
        )


# -------------------------------------------------------------------- Shamir


class ShamirProtocol(Protocol[shamir.ShamirShared]):
    """Shamir-sharing protocol (t < n/2): fast, honest-but-curious."""

    name = "shamir"
    _sharing = shamir

    def __init__(
        self,
        n_parties: int,
        threshold: int | None = None,
        dealer: TrustedDealer | None = None,
        encoder: FixedPointEncoder | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(n_parties, dealer, encoder, seed)
        self.threshold = threshold if threshold is not None else shamir.default_threshold(n_parties)
        if not self.threshold < n_parties / 2:
            raise SMPCError("Shamir multiplication needs t < n/2")

    def input_vector(self, values: FieldVector) -> shamir.ShamirShared:
        shared = shamir.share_vector(values, self.n_parties, self.threshold, self._rng)
        self.meter.record(rounds=1, elements=self.n_parties * len(values))
        return shared

    def open(self, shared: shamir.ShamirShared) -> FieldVector:
        opened = shamir.reconstruct(shared)
        self.meter.record(rounds=1, elements=self.n_parties * len(opened))
        return opened

    def add_public(self, a, public: FieldVector):
        return shamir.add_public(a, public)

    def _xor_public(self, a, bits):
        return shamir.xor_public(a, bits)

    def sum_inputs(self, inputs: Sequence[shamir.ShamirShared]) -> shamir.ShamirShared:
        if not inputs:
            raise SMPCError("sum of zero inputs")
        if len(inputs) == 1:
            return inputs[0]
        for item in inputs[1:]:
            shamir._check_compatible(inputs[0], item)
        return shamir.ShamirShared(
            [vector_sum([inp.shares[p] for inp in inputs]) for p in range(self.n_parties)],
            inputs[0].threshold,
        )

    def _comparison_mask(self, rows, low_bits, mask_bits):
        return self.dealer.shamir_comparison_mask(rows, low_bits, mask_bits, self.threshold)

    def _pair_carries(self, r_lo, r_hi, q, codes, skip):
        return shamir.pair_carries(r_lo, r_hi, q, codes, skip)

    def _triple(self, length: int):
        return self.dealer.shamir_triple(length, self.threshold)

    def _beaver_combine(self, triple, d, e):
        return shamir.beaver_combine(triple.a, triple.b, triple.c, d, e)
