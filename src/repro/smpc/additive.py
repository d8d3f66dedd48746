"""Full-threshold additive secret sharing with SPDZ-style MACs.

A secret x is split into n shares summing to x; *all* n shares are required
to reconstruct, so the scheme tolerates n-1 colluding nodes.  Active security
(with abort) comes from information-theoretic MACs: a global key alpha is
itself additively shared, and every shared value x carries a sharing of
``alpha * x``.  When a value is opened, parties check the MAC relation; any
tampering with shares makes the check fail with overwhelming probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import IntegrityError, SMPCError
from repro.smpc import field
from repro.smpc.field import PRIME, FieldVector, vector_sum


@dataclass
class AdditiveShared:
    """An additively shared vector with MAC shares (one entry per party)."""

    shares: list[FieldVector]
    macs: list[FieldVector]

    def __post_init__(self) -> None:
        if len(self.shares) != len(self.macs):
            raise SMPCError("share/MAC party-count mismatch")
        lengths = {len(s) for s in self.shares} | {len(m) for m in self.macs}
        if len(lengths) != 1:
            raise SMPCError("ragged additive sharing")

    @property
    def n_parties(self) -> int:
        return len(self.shares)

    def __len__(self) -> int:
        return len(self.shares[0])


def share_alpha(n_parties: int, rng: random.Random) -> tuple[int, list[int]]:
    """Sample the global MAC key and its additive sharing."""
    alpha = rng.randrange(PRIME)
    shares = [rng.randrange(PRIME) for _ in range(n_parties - 1)]
    last = (alpha - sum(shares)) % PRIME
    return alpha, shares + [last]


def share_vector(
    vector: FieldVector, n_parties: int, alpha: int, rng: random.Random
) -> AdditiveShared:
    """Dealer-style authenticated sharing of a vector."""
    value_shares = _split(vector, n_parties, rng)
    mac_shares = _split(vector, n_parties, rng, scalar=alpha)
    return AdditiveShared(value_shares, mac_shares)


def _split(
    vector: FieldVector, n_parties: int, rng: random.Random, scalar: int = 1
) -> list[FieldVector]:
    """Random shares of ``scalar·vector``: n - 1 drawn, the last computed."""
    shares = [FieldVector.random(len(vector), rng) for _ in range(n_parties - 1)]
    return shares + [field.last_share(vector, shares, scalar)]


def reconstruct(shared: AdditiveShared) -> FieldVector:
    """Sum all value shares (requires every party — full threshold)."""
    return vector_sum(shared.shares)


def check_macs(shared: AdditiveShared, opened: FieldVector, alpha_shares: Sequence[int]) -> None:
    """Verify the SPDZ MAC relation for an opened value.

    Each party i computes sigma_i = mac_i - alpha_i * opened; the sigmas must
    sum to zero, i.e. ``sum_i mac_i == alpha * opened`` with ``alpha`` the sum
    of the key shares, which is how it is checked (one pass).  Any
    modification of a value share (without the matching MAC forgery, which
    requires alpha) breaks the relation.
    """
    if not field.macs_match(shared.macs, opened, sum(alpha_shares)):
        raise IntegrityError("MAC check failed: opened value was tampered with")


# --------------------------------------------------- local (linear) operators


def add(a: AdditiveShared, b: AdditiveShared) -> AdditiveShared:
    """Share-wise addition (local, no communication)."""
    return AdditiveShared(
        [x + y for x, y in zip(a.shares, b.shares)],
        [x + y for x, y in zip(a.macs, b.macs)],
    )


def sub(a: AdditiveShared, b: AdditiveShared) -> AdditiveShared:
    """Share-wise subtraction (local)."""
    return AdditiveShared(
        [x - y for x, y in zip(a.shares, b.shares)],
        [x - y for x, y in zip(a.macs, b.macs)],
    )


def scale(a: AdditiveShared, scalar: int) -> AdditiveShared:
    """Multiply by a public scalar (local; MACs scale with the value)."""
    return AdditiveShared(
        [x.scale(scalar) for x in a.shares],
        [m.scale(scalar) for m in a.macs],
    )


def add_public(a: AdditiveShared, public: FieldVector, alpha_shares: Sequence[int]) -> AdditiveShared:
    """Add a public vector: party 0 adjusts its value share; every party
    adjusts its MAC share by alpha_i * public."""
    shares = [a.shares[0] + public] + a.shares[1:]
    macs = [field.add_scaled(m, public, alpha_i) for m, alpha_i in zip(a.macs, alpha_shares)]
    return AdditiveShared(shares, macs)


def select(a: AdditiveShared, bits: Sequence[int]) -> AdditiveShared:
    """Product with public 0/1 bits (local; MACs follow)."""
    return AdditiveShared(
        [field.select(s, bits) for s in a.shares], [field.select(m, bits) for m in a.macs]
    )


def xor_public(a: AdditiveShared, bits: Sequence[int], alpha_shares: Sequence[int]) -> AdditiveShared:
    """Shared bits XOR public bits: ``1 - x`` where the public bit is 1.

    Party 0 carries the constant 1, MAC share i carries alpha_i.
    """
    return AdditiveShared(
        [field.negate_where(s, bits, int(p == 0)) for p, s in enumerate(a.shares)],
        [field.negate_where(m, bits, alpha_i) for m, alpha_i in zip(a.macs, alpha_shares)],
    )


def sub_concat(lefts: Sequence[AdditiveShared], rights: Sequence[AdditiveShared]) -> AdditiveShared:
    """The sharing of ``(lefts[0] - rights[0]) ‖ (lefts[1] - rights[1]) ‖ ...``."""
    n_parties = lefts[0].n_parties
    return AdditiveShared(
        [
            field.sub_concat([x.shares[p] for x in lefts], [y.shares[p] for y in rights])
            for p in range(n_parties)
        ],
        [
            field.sub_concat([x.macs[p] for x in lefts], [y.macs[p] for y in rights])
            for p in range(n_parties)
        ],
    )


def beaver_combine(
    a: AdditiveShared,
    b: AdditiveShared,
    c: AdditiveShared,
    d: FieldVector,
    e: FieldVector,
    alpha_shares: Sequence[int],
) -> AdditiveShared:
    """The sharing of ``x·y`` from a triple ``(a, b, c)`` and the opened
    ``d = x - a``, ``e = y - b``: ``c + d·b + e·a + d·e``, with ``d·e`` on
    party 0's value share and ``alpha_i·d·e`` on MAC share i."""
    de = d * e
    return AdditiveShared(
        [
            field.beaver_combine(cs, as_, bs, d, e, de if p == 0 else None)
            for p, (as_, bs, cs) in enumerate(zip(a.shares, b.shares, c.shares))
        ],
        [
            field.beaver_combine(cm, am, bm, d, e, de, alpha_i)
            for am, bm, cm, alpha_i in zip(a.macs, b.macs, c.macs, alpha_shares)
        ],
    )


def take(a: AdditiveShared, indices) -> AdditiveShared:
    """Gather the same positions (index sequence or slice) from every share."""
    return AdditiveShared(
        [s.take(indices) for s in a.shares], [m.take(indices) for m in a.macs]
    )


def concat(parts: Sequence[AdditiveShared]) -> AdditiveShared:
    """Concatenate sharings end to end, party by party."""
    n_parties = parts[0].n_parties
    return AdditiveShared(
        [field.concat([part.shares[p] for part in parts]) for p in range(n_parties)],
        [field.concat([part.macs[p] for part in parts]) for p in range(n_parties)],
    )


def add_mask(
    x: AdditiveShared, bits: AdditiveShared, high: AdditiveShared, low_bits: int
) -> AdditiveShared:
    """The sharing of ``x + r`` for a dealt comparison mask (local; MACs
    follow): :func:`field.add_mask` on every share and MAC share."""
    return AdditiveShared(
        [field.add_mask(*parts, low_bits) for parts in zip(x.shares, bits.shares, high.shares)],
        [field.add_mask(*parts, low_bits) for parts in zip(x.macs, bits.macs, high.macs)],
    )


def pair_carries(
    r_lo: AdditiveShared,
    r_hi: AdditiveShared,
    q: AdditiveShared,
    codes: Sequence[int],
    skip: int,
    alpha_shares: Sequence[int],
) -> tuple[AdditiveShared, AdditiveShared]:
    """The first carry level of a comparison (:func:`field.pair_carries`):
    party 0 carries the public constant, MAC share i carries alpha_i times it."""
    values = [
        field.pair_carries(lo, hi, qv, codes, int(p == 0), skip)
        for p, (lo, hi, qv) in enumerate(zip(r_lo.shares, r_hi.shares, q.shares))
    ]
    macs = [
        field.pair_carries(lo, hi, qv, codes, alpha_i, skip)
        for lo, hi, qv, alpha_i in zip(r_lo.macs, r_hi.macs, q.macs, alpha_shares)
    ]
    return (
        AdditiveShared([g for g, _ in values], [g for g, _ in macs]),
        AdditiveShared([p for _, p in values], [p for _, p in macs]),
    )
