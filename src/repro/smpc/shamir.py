"""Shamir secret sharing over Z_p (the fast, honest-but-curious scheme).

A secret is the constant term of a random degree-t polynomial; party i holds
the evaluation at x = i + 1.  Any t+1 shares reconstruct via Lagrange
interpolation; t or fewer reveal nothing.  The paper deploys this scheme with
``t < n/2, t >= n/3`` as the fast option.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SMPCError, ThresholdError
from repro.smpc import field
from repro.smpc.field import PRIME, FieldVector, finv


@dataclass
class ShamirShared:
    """A Shamir-shared vector: party i holds evaluations at point i+1."""

    shares: list[FieldVector]
    threshold: int

    def __post_init__(self) -> None:
        lengths = {len(s) for s in self.shares}
        if len(lengths) != 1:
            raise SMPCError("ragged Shamir sharing")
        if not 0 < self.threshold < len(self.shares):
            raise SMPCError(
                f"invalid threshold t={self.threshold} for n={len(self.shares)} parties"
            )

    @property
    def n_parties(self) -> int:
        return len(self.shares)

    def __len__(self) -> int:
        return len(self.shares[0])


def default_threshold(n_parties: int) -> int:
    """The paper's setting: the largest t with t < n/2 (and t >= n/3 when possible)."""
    return max(1, (n_parties - 1) // 2)


def share_vector(
    vector: FieldVector, n_parties: int, threshold: int, rng: random.Random
) -> ShamirShared:
    """Share each element with an independent random degree-t polynomial.

    The coefficients are drawn in one batch, element-major
    (``flat[i * threshold + j]`` is element i's degree-(j + 1) coefficient),
    the order a per-element loop draws them in, so seeded shares match it.
    Horner's scheme then runs over whole coefficient columns.
    """
    if threshold >= n_parties:
        raise SMPCError("threshold must be below the party count")
    flat = field.random_field_elements(len(vector) * threshold, rng)
    columns = [vector.elements] + [flat[j::threshold] for j in range(threshold)]
    shares = []
    for point in range(1, n_parties + 1):
        # Horner over whole columns: one pass per party and degree.
        values = columns[-1]
        for column in columns[-2::-1]:
            values = [(value * point + low) % PRIME for value, low in zip(values, column)]
        shares.append(FieldVector._raw(values))
    return ShamirShared(shares, threshold)


def lagrange_coefficients_at_zero(points: Sequence[int]) -> list[int]:
    """Lagrange basis coefficients evaluating the polynomial at x = 0."""
    coefficients = []
    for i, xi in enumerate(points):
        numerator = 1
        denominator = 1
        for j, xj in enumerate(points):
            if i == j:
                continue
            numerator = (numerator * (-xj)) % PRIME
            denominator = (denominator * (xi - xj)) % PRIME
        coefficients.append((numerator * finv(denominator)) % PRIME)
    return coefficients


def reconstruct(shared: ShamirShared, degree: int | None = None) -> FieldVector:
    """Interpolate the secret vector from the first ``degree + 1`` shares.

    ``degree`` defaults to the sharing threshold; after one local
    multiplication the underlying polynomial has degree ``2t`` and callers
    pass ``degree=2t`` (requires ``2t + 1 <= n``, i.e. t < n/2).
    """
    degree = shared.threshold if degree is None else degree
    needed = degree + 1
    if needed > shared.n_parties:
        raise ThresholdError(
            f"need {needed} shares to reconstruct a degree-{degree} sharing, "
            f"have {shared.n_parties}"
        )
    points = list(range(1, needed + 1))
    coefficients = lagrange_coefficients_at_zero(points)
    # The Lagrange combine is a dot product of public coefficients with the
    # share vectors: one lazily reduced pass (field.linear_combination).
    return field.linear_combination(coefficients, shared.shares[:needed])


def reconstruct_from_subset(
    shares: Sequence[tuple[int, FieldVector]], threshold: int
) -> FieldVector:
    """Reconstruct from an explicit subset of (party_index, share) pairs."""
    if len(shares) < threshold + 1:
        raise ThresholdError(
            f"need {threshold + 1} shares, have {len(shares)}"
        )
    chosen = list(shares[: threshold + 1])
    points = [party + 1 for party, _ in chosen]
    coefficients = lagrange_coefficients_at_zero(points)
    return field.linear_combination(coefficients, [share for _, share in chosen])


def reshare(
    shared: ShamirShared,
    survivors: Sequence[int],
    rng: random.Random,
    new_threshold: int | None = None,
) -> ShamirShared:
    """Redistribute a sharing to a surviving party subset, without ever
    reconstructing the secret.

    The survivor re-split path after node loss: each surviving party ``i``
    re-shares its Lagrange-weighted share ``lambda_i * s_i`` among the
    survivors with a fresh random polynomial; summing the sub-sharings gives
    a new ``len(survivors)``-party sharing of the *same* secret (the weighted
    shares sum to it by interpolation), at threshold ``new_threshold``
    (default: the paper's setting for the new party count).  No coalition of
    ``new_threshold`` or fewer survivors learns anything new.

    Requires at least ``threshold + 1`` survivors — below that the secret is
    information-theoretically gone, and :class:`ThresholdError` is raised.
    """
    survivors = list(survivors)
    if len(set(survivors)) != len(survivors):
        raise SMPCError("duplicate survivor indices")
    if any(not 0 <= party < shared.n_parties for party in survivors):
        raise SMPCError("survivor index out of range")
    if len(survivors) < shared.threshold + 1:
        raise ThresholdError(
            f"need {shared.threshold + 1} survivors to reshare a threshold-"
            f"{shared.threshold} sharing, have {len(survivors)}"
        )
    n_new = len(survivors)
    threshold = default_threshold(n_new) if new_threshold is None else new_threshold
    if not 0 < threshold < n_new:
        raise SMPCError(f"invalid new threshold t={threshold} for n={n_new} survivors")
    points = [party + 1 for party in survivors]
    coefficients = lagrange_coefficients_at_zero(points)
    total: ShamirShared | None = None
    for coefficient, party in zip(coefficients, survivors):
        contribution = shared.shares[party].scale(coefficient)
        sub_sharing = share_vector(contribution, n_new, threshold, rng)
        total = sub_sharing if total is None else add(total, sub_sharing)
    assert total is not None
    return total


# --------------------------------------------------- local (linear) operators


def add(a: ShamirShared, b: ShamirShared) -> ShamirShared:
    """Share-wise addition (local, no communication)."""
    _check_compatible(a, b)
    return ShamirShared([x + y for x, y in zip(a.shares, b.shares)], a.threshold)


def sub(a: ShamirShared, b: ShamirShared) -> ShamirShared:
    """Share-wise subtraction (local)."""
    _check_compatible(a, b)
    return ShamirShared([x - y for x, y in zip(a.shares, b.shares)], a.threshold)


def scale(a: ShamirShared, scalar: int) -> ShamirShared:
    """Multiply by a public scalar (local)."""
    return ShamirShared([x.scale(scalar) for x in a.shares], a.threshold)


def add_public(a: ShamirShared, public: FieldVector) -> ShamirShared:
    """Adding a constant shifts every party's share (poly + c)."""
    return ShamirShared([x + public for x in a.shares], a.threshold)


def select(a: ShamirShared, bits: Sequence[int]) -> ShamirShared:
    """Product with public 0/1 bits (local)."""
    return ShamirShared([field.select(s, bits) for s in a.shares], a.threshold)


def xor_public(a: ShamirShared, bits: Sequence[int]) -> ShamirShared:
    """Shared bits XOR public bits: ``1 - x`` where the public bit is 1 (every
    share carries the constant)."""
    return ShamirShared([field.negate_where(s, bits, 1) for s in a.shares], a.threshold)


def sub_concat(lefts: Sequence[ShamirShared], rights: Sequence[ShamirShared]) -> ShamirShared:
    """The sharing of ``(lefts[0] - rights[0]) ‖ (lefts[1] - rights[1]) ‖ ...``."""
    for part in [*lefts[1:], *rights]:
        _check_compatible(lefts[0], part)
    return ShamirShared(
        [
            field.sub_concat([x.shares[p] for x in lefts], [y.shares[p] for y in rights])
            for p in range(lefts[0].n_parties)
        ],
        lefts[0].threshold,
    )


def beaver_combine(
    a: ShamirShared, b: ShamirShared, c: ShamirShared, d: FieldVector, e: FieldVector
) -> ShamirShared:
    """The sharing of ``x·y`` from a triple ``(a, b, c)`` and the opened
    ``d = x - a``, ``e = y - b``: ``c + d·b + e·a + d·e`` on every share."""
    de = d * e
    return ShamirShared(
        [
            field.beaver_combine(cs, as_, bs, d, e, de)
            for as_, bs, cs in zip(a.shares, b.shares, c.shares)
        ],
        a.threshold,
    )


def take(a: ShamirShared, indices) -> ShamirShared:
    """Gather the same positions (index sequence or slice) from every share."""
    return ShamirShared([s.take(indices) for s in a.shares], a.threshold)


def concat(parts: Sequence[ShamirShared]) -> ShamirShared:
    """Concatenate sharings end to end, party by party."""
    for part in parts[1:]:
        _check_compatible(parts[0], part)
    return ShamirShared(
        [field.concat([part.shares[p] for part in parts]) for p in range(parts[0].n_parties)],
        parts[0].threshold,
    )


def row_dot(a: ShamirShared, row_length: int, weights: Sequence[int], start: int = 0) -> ShamirShared:
    """Per-row public-weight combination of a flat shared matrix (local)."""
    return ShamirShared(
        [field.row_dot(s, row_length, weights, start) for s in a.shares], a.threshold
    )


def multiply_local(a: ShamirShared, b: ShamirShared) -> ShamirShared:
    """Share-wise product: a valid sharing of a*b at degree 2t.

    The result must be reconstructed with ``degree=2t`` or degree-reduced; it
    is how one final multiplication before an open is done cheaply.
    """
    _check_compatible(a, b)
    return ShamirShared([x * y for x, y in zip(a.shares, b.shares)], a.threshold)


def public_to_shared(public: FieldVector, n_parties: int, threshold: int) -> ShamirShared:
    """Deterministic (zero-polynomial) sharing of a public constant."""
    return ShamirShared([public.copy() for _ in range(n_parties)], threshold)


def _check_compatible(a: ShamirShared, b: ShamirShared) -> None:
    if a.n_parties != b.n_parties or a.threshold != b.threshold:
        raise SMPCError("incompatible Shamir sharings")
