"""The offline phase: a trusted dealer producing correlated randomness.

SPDZ runs "a lot of the required SMPC computations in an offline phase"
(paper §2): multiplication triples and shared random bits are produced before
the data-dependent online phase starts.  Real SPDZ generates them with
somewhat-homomorphic encryption; we substitute a trusted dealer, which
preserves the online protocol unchanged and keeps the offline/online cost
split measurable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SMPCError
from repro.smpc import additive, shamir
from repro.smpc.field import FieldVector, random_bit_elements


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
class OfflineUsage:
    """Meter for offline-phase production (for the E4 benchmark)."""

    triples: int = 0
    random_bits: int = 0
    elements_dealt: int = 0


class TrustedDealer:
    """Produces triples and shared random bits for either scheme."""

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

    def additive_random_bits(self, count: int) -> additive.AdditiveShared:
        bits = FieldVector._raw(random_bit_elements(count, self._rng))
        shared = additive.share_vector(bits, self.n_parties, self.alpha, self._rng)
        self.usage.random_bits += count
        self.usage.elements_dealt += 2 * self.n_parties * count
        return shared

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

    def shamir_random_bits(self, count: int, threshold: int) -> shamir.ShamirShared:
        bits = FieldVector._raw(random_bit_elements(count, self._rng))
        shared = shamir.share_vector(bits, self.n_parties, threshold, self._rng)
        self.usage.random_bits += count
        self.usage.elements_dealt += self.n_parties * count
        return shared

    @property
    def rng(self) -> random.Random:
        return self._rng
