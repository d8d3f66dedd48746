"""Arithmetic in the prime field Z_p with p = 2^127 - 1.

All SMPC values are field elements.  The Mersenne prime 2^127 - 1 leaves
enough headroom for fixed-point encodings of statistics (80 magnitude bits,
wide enough for second-moment sums over national-scale caseloads) plus the
statistical-masking bits that secure comparison and truncation need,
matching the parameter regime of real SPDZ deployments.

Two interchangeable kernels implement the vector arithmetic:

* ``python`` — plain Python-int lists, the reference implementation.  Every
  operation is a transparent one-liner; differential tests hold the fast
  kernel to byte-exact agreement with it.
* ``numpy`` — ``(N, 5)`` int64 limb arrays with Mersenne folding
  (:mod:`repro.smpc.limb`), the hot path for national-scale vectors.

Selection: the default ``auto`` routes each operation by vector length
(:data:`NUMPY_MIN_ELEMENTS`): bulk aggregation vectors and the flat bit
matrices of long comparison batches take the limb kernel; the bit matrices
of the few-element comparisons the algorithms emit stay on Python bignums,
which beat numpy's fixed dispatch cost at that size.  :func:`set_kernel`
forces one kernel (the differential tests and the ``--smpc-kernel`` option
of the SMPC test suite).  Both kernels produce identical field elements for
identical inputs — arithmetic in Z_p is exact — and
:meth:`FieldVector.random` consumes the seeded RNG stream identically under
either, so seeded runs are kernel-independent end to end.

The experiment ladder's secure workloads (``e2_secure_mix``,
``ft_compare_secure``) never reach the limb kernel: their payloads are a few
statistics per key, so the largest vector they build — a comparison's flat
bit matrix, 122 elements per compared value, at most 16 values per
tournament level — stays below :data:`NUMPY_MIN_ELEMENTS` (1 944 elements at
most).  Their cost is the number of passes over Python-int lists, each
reduced mod p, which is why the share-wise steps of the online protocols
and the dealer are *fused* here: :func:`beaver_combine`, :func:`sub_concat`,
:func:`macs_match`, :func:`add_scaled`, :func:`select`,
:func:`negate_where` and :func:`last_share` each do in one pass, with one
reduction per element, what a chain of element-wise operations did in
several.

A :class:`FieldVector` caches both representations and converts lazily;
accessing the public ``elements`` list invalidates the limb cache because
callers may mutate the list they receive.
"""

from __future__ import annotations

import operator
import random
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SMPCError
from repro.smpc import limb

#: The field modulus (Mersenne prime 2^127 - 1).
PRIME = (1 << 127) - 1
#: Residues above this are the negatives of small ones (p - 1 is -1).
_HALF = PRIME >> 1

_KERNELS = ("python", "numpy", "auto")
_kernel_override: str | None = None

#: In ``auto`` mode, vectors shorter than this use the python path.  The
#: limb kernel pays a fixed ~20-50 us of numpy dispatch per operation and
#: draws random shares at half the bignum speed (every draw is serialized
#: through ``to_bytes``), so it only wins once a vector is long enough to
#: amortize both.  Derived from ``benchmarks/bench_smpc_kernels.py``: the
#: comparison protocols work on flat bit matrices of 122 elements per
#: compared value, and the measured crossover sits near 8 values (976
#: elements) under Shamir and near 50 (6 100) under full threshold; secure
#: sums cross near 100 and 900 elements.  2048 keeps every comparison batch
#: the algorithms emit (at most 16 values per tournament level) on bignums
#: under both schemes, and still hands the n = 200 comparison rows and the
#: bulk sums to the limb kernel, which wins them.  Results are identical
#: either way.
NUMPY_MIN_ELEMENTS = 2048


def set_kernel(name: str | None) -> str | None:
    """Override the kernel selection (``None`` restores ``auto``).

    Returns the previous override so tests can restore it.
    """
    global _kernel_override
    if name is not None and name not in _KERNELS:
        raise SMPCError(f"unknown SMPC kernel {name!r}; choose from {_KERNELS}")
    previous = _kernel_override
    _kernel_override = name
    return previous


def active_kernel() -> str:
    """The kernel in effect: the :func:`set_kernel` override, else ``auto``."""
    return _kernel_override or "auto"


def use_numpy(length: int) -> bool:
    """Whether the limb kernel handles a *newly created* vector of ``length``.

    ``numpy`` and ``python`` force their path unconditionally (the
    differential suite relies on that); ``auto`` — the default — picks the
    limb kernel once a vector is long enough to amortize numpy dispatch.
    Existing vectors route per-operation via representation stickiness
    (:meth:`FieldVector._prefer_numpy`).
    """
    kernel = active_kernel()
    if kernel == "numpy":
        return True
    if kernel == "python":
        return False
    return length >= NUMPY_MIN_ELEMENTS


def fadd(a: int, b: int) -> int:
    """Field addition."""
    return (a + b) % PRIME


def fsub(a: int, b: int) -> int:
    """Field subtraction."""
    return (a - b) % PRIME


def fmul(a: int, b: int) -> int:
    """Field multiplication."""
    return (a * b) % PRIME


def fneg(a: int) -> int:
    """Field additive inverse."""
    return (-a) % PRIME


def finv(a: int) -> int:
    """Field multiplicative inverse (Fermat)."""
    if a % PRIME == 0:
        raise SMPCError("zero has no multiplicative inverse")
    return pow(a, PRIME - 2, PRIME)


def fpow(a: int, exponent: int) -> int:
    """Field exponentiation."""
    return pow(a, exponent, PRIME)


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


#: Little-endian bytes of the one rejected 127-bit pattern (the value p).
_P_BYTES = PRIME.to_bytes(16, "little")


def _random_field_limbs(count: int, rng: random.Random) -> np.ndarray:
    """Draw ``count`` uniform field elements directly into limb form.

    Consumes the RNG stream exactly like :func:`random_field_elements` (same
    ``getrandbits(127)`` draws, same rejection) but serializes each draw to
    bytes in one comprehension, skipping the Python-int list entirely — the
    numpy kernel's share-sampling hot path.  The rejection case (a draw equal
    to p, probability 2^-127) is handled by snapshotting the RNG state up
    front and replaying the batch through the careful per-draw loop, so the
    stream stays identical to the reference even then.
    """
    state = rng.getstate()
    getrandbits = rng.getrandbits
    parts = [getrandbits(127).to_bytes(16, "little") for _ in range(count)]
    if _P_BYTES in parts:  # pragma: no cover - probability ~count * 2^-127
        rng.setstate(state)
        parts = []
        append = parts.append
        for _ in range(count):
            value = getrandbits(127)
            while value >= PRIME:
                value = getrandbits(127)
            append(value.to_bytes(16, "little"))
    return limb.limbs_from_le16(b"".join(parts))


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

    Internally either a list of Python ints (``python`` kernel, and the
    public ``elements`` view) or an ``(N, 5)`` int64 limb array (``numpy``
    kernel); conversions are lazy and cached.  The list returned by
    ``elements`` may be mutated by callers (the reference Shamir sharer
    does), so reading it drops the limb cache; mutating a previously
    obtained list *after* further field operations is unsupported.
    """

    __slots__ = ("_elements", "_limbs")

    def __init__(self, elements: Sequence[int]) -> None:
        self._elements: list[int] | None = [int(e) % PRIME for e in elements]
        self._limbs: np.ndarray | None = None

    @classmethod
    def zeros(cls, length: int) -> "FieldVector":
        return cls._raw([0] * length)

    @classmethod
    def random(cls, length: int, rng: random.Random) -> "FieldVector":
        """Uniform random vector (batched draw, see :func:`random_field_elements`).

        Both kernels consume the seeded RNG stream identically; the numpy
        kernel lands the draws straight in limb form.
        """
        if use_numpy(length):
            return cls._from_limbs(_random_field_limbs(length, rng))
        return cls._raw(random_field_elements(length, rng))

    @classmethod
    def from_signed_int64(cls, values: np.ndarray) -> "FieldVector":
        """Build a vector from signed int64 residues (|v| < 2^62).

        The fixed-point encoder's bridge: negative values map to ``p - |v|``.
        Under the numpy kernel the limbs are packed directly — no Python
        bignums materialize; the python kernel takes the transparent
        ``v % PRIME`` route.  Both produce identical field elements.
        """
        if use_numpy(len(values)):
            return cls._from_limbs(limb.from_signed_int64(values))
        return cls._raw([int(v) % PRIME for v in values])

    def to_signed_int64(self) -> np.ndarray | None:
        """Centered signed-int64 view, or ``None`` if any |value| >= 2^62.

        The decode bridge: elements below p/2 come back positive, elements
        above come back negative, without materializing Python ints under
        the numpy kernel.  Callers must fall back to the exact big-int path
        on ``None``.
        """
        if self._limbs is not None and self._elements is None:
            return limb.to_signed_int64(self._limbs)
        half = PRIME >> 1
        bound = limb.INT64_BOUND
        out = np.empty(len(self), dtype=np.int64)
        for i, value in enumerate(self._as_elements()):
            signed = value if value <= half else value - PRIME
            if not -bound < signed < bound:
                return None
            out[i] = signed
        return out

    @classmethod
    def _raw(cls, elements: list[int]) -> "FieldVector":
        vector = cls.__new__(cls)
        vector._elements = elements
        vector._limbs = None
        return vector

    @classmethod
    def _from_limbs(cls, limbs: np.ndarray) -> "FieldVector":
        vector = cls.__new__(cls)
        vector._elements = None
        vector._limbs = limbs
        return vector

    # ------------------------------------------------------- representations

    @property
    def elements(self) -> list[int]:
        """The vector as a list of Python ints (the public, mutable view)."""
        if self._elements is None:
            self._elements = limb.from_limbs(self._limbs)
        # The caller may mutate the list it gets; a cached limb view would
        # go stale silently, so it is dropped here.
        self._limbs = None
        return self._elements

    def _as_elements(self) -> list[int]:
        """Internal read-only view; keeps the limb cache alive."""
        if self._elements is None:
            self._elements = limb.from_limbs(self._limbs)
        return self._elements

    def _as_limbs(self) -> np.ndarray:
        if self._limbs is None:
            self._limbs = limb.to_limbs(self._elements)
        return self._limbs

    def copy(self) -> "FieldVector":
        """An independent copy (cheap: copies whichever cache is live)."""
        if self._limbs is not None:
            return FieldVector._from_limbs(self._limbs.copy())
        return FieldVector._raw(list(self._elements))

    # ------------------------------------------------------------- protocol

    def __len__(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        return self._limbs.shape[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __getitem__(self, index: int) -> int:
        return self._as_elements()[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldVector):
            return NotImplemented
        return self._as_elements() == other._as_elements()

    def _check_length(self, other: "FieldVector") -> None:
        if len(self) != len(other):
            raise SMPCError(f"length mismatch: {len(self)} vs {len(other)}")

    def _prefer_numpy(self, *others: "FieldVector") -> bool:
        """Per-operation kernel choice for existing vectors.

        In ``auto`` mode the limb kernel is used only when the vector is
        long enough AND an operand is already limb-backed: limb-born data
        (random shares, encoder output) stays on the fast path, while
        element-born data (the bit vectors of comparison protocols, whose
        consumers read ``elements`` every round) stays on Python bignums
        instead of paying a representation conversion per operation.
        """
        kernel = active_kernel()
        if kernel != "auto":
            return kernel == "numpy"
        if len(self) < NUMPY_MIN_ELEMENTS:
            return False
        return self._limbs is not None or any(o._limbs is not None for o in others)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "FieldVector") -> "FieldVector":
        self._check_length(other)
        if self._prefer_numpy(other):
            return FieldVector._from_limbs(limb.add(self._as_limbs(), other._as_limbs()))
        return FieldVector._raw(
            [(a + b) % PRIME for a, b in zip(self._as_elements(), other._as_elements())]
        )

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        self._check_length(other)
        if self._prefer_numpy(other):
            return FieldVector._from_limbs(limb.sub(self._as_limbs(), other._as_limbs()))
        return FieldVector._raw(
            [(a - b) % PRIME for a, b in zip(self._as_elements(), other._as_elements())]
        )

    def __mul__(self, other: "FieldVector") -> "FieldVector":
        self._check_length(other)
        if self._prefer_numpy(other):
            return FieldVector._from_limbs(limb.mul(self._as_limbs(), other._as_limbs()))
        return FieldVector._raw(
            [(a * b) % PRIME for a, b in zip(self._as_elements(), other._as_elements())]
        )

    def scale(self, scalar: int) -> "FieldVector":
        scalar = scalar % PRIME
        if self._prefer_numpy():
            return FieldVector._from_limbs(limb.scale(self._as_limbs(), scalar))
        scalar = _centered(scalar)  # p - 1 multiplies as -1, not as a 127-bit int
        return FieldVector._raw([(a * scalar) % PRIME for a in self._as_elements()])

    def negate(self) -> "FieldVector":
        if self._prefer_numpy():
            return FieldVector._from_limbs(limb.neg(self._as_limbs()))
        return FieldVector._raw([(-a) % PRIME for a in self._as_elements()])

    def add_scalar(self, scalar: int) -> "FieldVector":
        scalar = scalar % PRIME
        if self._prefer_numpy():
            return FieldVector._from_limbs(limb.add_scalar(self._as_limbs(), scalar))
        return FieldVector._raw([(a + scalar) % PRIME for a in self._as_elements()])

    # -------------------------------------------------------------- queries

    def is_zero(self) -> bool:
        """True when every element is zero (no materialization under numpy)."""
        if self._limbs is not None and self._elements is None:
            return limb.is_zero(self._limbs)
        return not any(self._as_elements())

    def take(self, indices: "Sequence[int] | np.ndarray | slice") -> "FieldVector":
        """Gather elements at ``indices`` — an index sequence or a slice.

        The reshuffle primitive of the flat comparison protocols: bit-matrix
        columns and carry-tree node blocks are picked out of one long vector.
        """
        if self._prefer_numpy():
            if not isinstance(indices, slice):
                indices = np.asarray(indices, dtype=np.intp)
            return FieldVector._from_limbs(self._as_limbs()[indices])
        elements = self._as_elements()
        if isinstance(indices, slice):
            return FieldVector._raw(elements[indices])
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        return FieldVector._raw(list(map(elements.__getitem__, indices)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = self._as_elements()[:4]
        suffix = "..." if len(self) > 4 else ""
        return f"FieldVector({preview}{suffix}, n={len(self)})"


def concat(vectors: Sequence[FieldVector]) -> FieldVector:
    """Concatenate vectors end to end (the inverse of slicing with ``take``)."""
    if not vectors:
        raise SMPCError("concat of zero vectors")
    if any(v._prefer_numpy() for v in vectors):
        return FieldVector._from_limbs(np.concatenate([v._as_limbs() for v in vectors]))
    out: list[int] = []
    for vector in vectors:
        out.extend(vector._as_elements())
    return FieldVector._raw(out)


def vector_sum(vectors: Iterable[FieldVector]) -> FieldVector:
    """Element-wise sum of several equal-length vectors.

    Uses lazy modular reduction: under the numpy kernel limb accumulators
    absorb up to 2^36 canonical vectors before a single carry pass; under the
    python kernel the element-wise bignum sums are exact, so one pass with
    one ``% PRIME`` per element replaces one pass and one reduction per
    vector.  This is the SMPC aggregation hot path — every share import and
    every full-threshold reconstruction funnels through here.
    """
    vectors = list(vectors)
    if not vectors:
        raise SMPCError("vector_sum of zero vectors")
    _check_lengths(vectors, "vector_sum")
    if vectors[0]._prefer_numpy():
        return FieldVector._from_limbs(limb.vector_sum([v._as_limbs() for v in vectors]))
    return FieldVector._raw(
        [value % PRIME for value in _column_sums([v._as_elements() for v in vectors])]
    )


def linear_combination(scalars: Sequence[int], vectors: Sequence[FieldVector]) -> FieldVector:
    """``sum_i scalars[i] * vectors[i]`` — the Lagrange/MAC dot-product shape.

    Under the numpy kernel the scalar products accumulate lazily in the wide
    schoolbook domain with one fold at the end (:func:`limb.linear_combination`);
    the python path is one pass with one reduction per element, each scalar
    taken as its centered residue (a Lagrange weight p - 1 multiplies as -1).
    """
    if len(scalars) != len(vectors):
        raise SMPCError("linear_combination arity mismatch")
    if not vectors:
        raise SMPCError("linear_combination of zero terms")
    _check_lengths(vectors, "linear_combination")
    scalars = [s % PRIME for s in scalars]
    if vectors[0]._prefer_numpy():
        return FieldVector._from_limbs(
            limb.linear_combination(scalars, [v._as_limbs() for v in vectors])
        )
    terms = [
        map(_centered(scalar).__mul__, vector._as_elements())
        for scalar, vector in zip(scalars, vectors)
    ]
    return FieldVector._raw([value % PRIME for value in _column_sums(terms)])


def row_dot(
    matrix: FieldVector, row_length: int, weights: Sequence[int], start: int = 0
) -> FieldVector:
    """Per-row dot product of a flat row-major matrix with public weights.

    ``matrix`` holds ``len(matrix) // row_length`` rows; row ``j`` yields
    ``sum_i weights[i] * matrix[j * row_length + start + i]``.  This is how a
    bitwise-shared random is assembled from the flat bit matrix: one linear
    combination of the matrix's columns per party share.  Weights must be
    canonical (in ``[0, p)``).
    """
    if row_length <= 0 or len(matrix) % row_length:
        raise SMPCError("row_dot: matrix length is not a multiple of the row length")
    stop = start + len(weights)
    if not weights or start < 0 or stop > row_length:
        raise SMPCError("row_dot: weights do not fit inside a row")
    if matrix._prefer_numpy():
        rows = matrix._as_limbs().reshape(-1, row_length, limb.N_LIMBS)
        return FieldVector._from_limbs(
            limb.linear_combination(weights, [rows[:, i] for i in range(start, stop)])
        )
    elements = matrix._as_elements()
    # Lazy reduction: at most row_length products below 2^254 per row.
    return FieldVector._raw(
        [
            sum(map(operator.mul, elements[k + start : k + stop], weights)) % PRIME
            for k in range(0, len(elements), row_length)
        ]
    )


# ------------------------------------------------------------ fused share steps
#
# Each function below is one share-wise step of the online protocols or the
# dealer, applied to ONE party share (or MAC share): one pass over the
# elements, one reduction per element, where the unfused composition of
# FieldVector operations made one pass and one reduction per operation.
# The kernel is chosen by the usual _prefer_numpy rule; the limb versions
# compose the limb kernel's operations.


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


def _mask(bits: Sequence[int]) -> np.ndarray:
    """Public bits as a column that broadcasts over a limb array."""
    return np.asarray(bits, dtype=bool)[:, None]


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
    if c._prefer_numpy(*vectors[1:]):
        return FieldVector._from_limbs(
            limb.beaver_combine(
                *(v._as_limbs() for v in vectors[:5]),
                None if de is None else de._as_limbs(),
                weight,
            )
        )
    columns = [v._as_elements() for v in vectors]
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
    if any(left._prefer_numpy(right) for left, right in zip(lefts, rights)):
        return FieldVector._from_limbs(
            limb.sub(
                np.concatenate([v._as_limbs() for v in lefts]),
                np.concatenate([v._as_limbs() for v in rights]),
            )
        )
    return FieldVector._raw(
        [
            (x - y) % PRIME
            for x, y in zip(
                chain.from_iterable(v._as_elements() for v in lefts),
                chain.from_iterable(v._as_elements() for v in rights),
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
    if opened._prefer_numpy(*macs):
        return limb.is_zero(
            limb.sub(
                limb.vector_sum([m._as_limbs() for m in macs]),
                limb.scale(opened._as_limbs(), alpha),
            )
        )
    total = _column_sums([m._as_elements() for m in macs])
    return not any(
        [(value - alpha * x) % PRIME for value, x in zip(total, opened._as_elements())]
    )


def add_scaled(vector: FieldVector, other: FieldVector, scalar: int) -> FieldVector:
    """``vector + scalar·other``: a public vector entering a MAC share."""
    _check_lengths([vector, other], "add_scaled")
    scalar %= PRIME
    if vector._prefer_numpy(other):
        return FieldVector._from_limbs(
            limb.add(vector._as_limbs(), limb.scale(other._as_limbs(), scalar))
        )
    return FieldVector._raw(
        [(v + scalar * o) % PRIME for v, o in zip(vector._as_elements(), other._as_elements())]
    )


def select(vector: FieldVector, bits: Sequence[int]) -> FieldVector:
    """``vector`` where the public bit is 1, else 0 (a product with 0/1)."""
    _check_bits(vector, bits)
    if vector._prefer_numpy():
        return FieldVector._from_limbs(vector._as_limbs() * _mask(bits))
    return FieldVector._raw([v if bit else 0 for v, bit in zip(vector._as_elements(), bits)])


def negate_where(vector: FieldVector, bits: Sequence[int], offset: int = 0) -> FieldVector:
    """``offset - vector`` where the public bit is 1, else ``vector``.

    A product with public ±1 plus a public 0/1-multiple of ``offset``,
    without a 127-bit multiplication: how a shared bit is XORed with public
    bits (``offset`` 1 on the shares carrying constants, ``alpha_i`` on MAC
    share ``i``).
    """
    _check_bits(vector, bits)
    offset %= PRIME
    if vector._prefer_numpy():
        limbs = vector._as_limbs()
        return FieldVector._from_limbs(
            np.where(_mask(bits), limb.add_scalar(limb.neg(limbs), offset), limbs)
        )
    return FieldVector._raw(
        [(offset - v) % PRIME if bit else v for v, bit in zip(vector._as_elements(), bits)]
    )


def last_share(total: FieldVector, shares: Sequence[FieldVector], scalar: int = 1) -> FieldVector:
    """``scalar·total - sum(shares)``: the share that completes a sharing.

    The dealer's last value share (``scalar`` 1) and last MAC share
    (``scalar`` alpha) of an additive sharing of ``total``.
    """
    if not shares:
        raise SMPCError("last_share needs the other shares")
    _check_lengths([total, *shares], "last_share")
    scalar %= PRIME
    if total._prefer_numpy(*shares):
        return FieldVector._from_limbs(
            limb.sub(
                limb.scale(total._as_limbs(), scalar),
                limb.vector_sum([s._as_limbs() for s in shares]),
            )
        )
    subtrahends = _column_sums([s._as_elements() for s in shares])
    return FieldVector._raw(
        [(scalar * t - s) % PRIME for t, s in zip(total._as_elements(), subtrahends)]
    )
