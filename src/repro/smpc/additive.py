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
    mac_vector = vector.scale(alpha)
    mac_shares = _split(mac_vector, n_parties, rng)
    return AdditiveShared(value_shares, mac_shares)


def _split(vector: FieldVector, n_parties: int, rng: random.Random) -> list[FieldVector]:
    shares = [FieldVector.random(len(vector), rng) for _ in range(n_parties - 1)]
    last = vector
    for share in shares:
        last = last - share
    return shares + [last]


def reconstruct(shared: AdditiveShared) -> FieldVector:
    """Sum all value shares (requires every party — full threshold)."""
    return vector_sum(shared.shares)


def resplit(shared: AdditiveShared, n_new: int, rng: random.Random) -> AdditiveShared:
    """Dealer-assisted re-split of a full-threshold sharing to a new party set.

    Full-threshold sharing cannot survive a lost share (that is the point of
    the scheme), so re-splitting after a membership change is performed by
    the trusted dealer, who holds every share in this simulation: the value
    and MAC totals are summed and split afresh among ``n_new`` parties.
    Both totals are preserved exactly, so the result still verifies under
    any additive sharing of the *same* global key alpha
    (see :func:`check_macs`).
    """
    if n_new < 2:
        raise SMPCError("an additive sharing needs at least two parties")
    value_total = vector_sum(shared.shares)
    mac_total = vector_sum(shared.macs)
    return AdditiveShared(
        _split(value_total, n_new, rng), _split(mac_total, n_new, rng)
    )


def check_macs(shared: AdditiveShared, opened: FieldVector, alpha_shares: Sequence[int]) -> None:
    """Verify the SPDZ MAC relation for an opened value.

    Each party i computes sigma_i = mac_i - alpha_i * opened; the sigmas must
    sum to zero.  Any modification of a value share (without the matching MAC
    forgery, which requires alpha) breaks the relation.
    """
    sigma_total = FieldVector.zeros(len(opened))
    for mac_share, alpha_share in zip(shared.macs, alpha_shares):
        sigma = mac_share - opened.scale(alpha_share)
        sigma_total = sigma_total + sigma
    if not sigma_total.is_zero():
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
    shares = [s for s in a.shares]
    shares[0] = shares[0] + public
    macs = [m + public.scale(alpha_i) for m, alpha_i in zip(a.macs, alpha_shares)]
    return AdditiveShared(shares, macs)


def scale_by_vector(a: AdditiveShared, public: FieldVector) -> AdditiveShared:
    """Element-wise product with a public vector (local; MACs follow)."""
    return AdditiveShared([s * public for s in a.shares], [m * public for m in a.macs])


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


def row_dot(a: AdditiveShared, row_length: int, weights: Sequence[int], start: int = 0) -> AdditiveShared:
    """Per-row public-weight combination of a flat shared matrix (local)."""
    return AdditiveShared(
        [field.row_dot(s, row_length, weights, start) for s in a.shares],
        [field.row_dot(m, row_length, weights, start) for m in a.macs],
    )


def public_to_shared(
    public: FieldVector, n_parties: int, alpha_shares: Sequence[int]
) -> AdditiveShared:
    """Deterministic sharing of a public constant (share = value at party 0)."""
    shares = [FieldVector.zeros(len(public)) for _ in range(n_parties)]
    shares[0] = public.copy()
    macs = [public.scale(alpha_i) for alpha_i in alpha_shares]
    return AdditiveShared(shares, macs)
