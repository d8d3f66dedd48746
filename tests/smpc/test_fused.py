"""The fused share steps against their unfused compositions.

Each fused primitive in :mod:`repro.smpc.field` does in one pass what a
chain of element-wise :class:`FieldVector` operations did before; the chain
is kept here as the oracle.  Every primitive runs at several lengths and on
the field's edge elements (0, 1, p - 1), and must match the oracle exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SMPCError
from repro.smpc import field
from repro.smpc.field import PRIME, FieldVector

LENGTHS = (0, 1, 7, 200)
EDGES = (0, 1, PRIME - 1)

scalars = st.one_of(st.sampled_from(EDGES), st.integers(0, PRIME - 1))
cases = st.tuples(st.sampled_from(LENGTHS), st.integers(0, 2**32))


def draw_vectors(case, count):
    """``count`` vectors of one length, a third of their elements 0, 1 or p - 1."""
    length, seed = case
    rng = random.Random(seed)
    return [
        FieldVector(
            [
                rng.choice(EDGES) if rng.random() < 1 / 3 else rng.randrange(PRIME)
                for _ in range(length)
            ]
        )
        for _ in range(count)
    ]


def draw_bits(case):
    length, seed = case
    rng = random.Random(seed + 1)
    return [rng.randrange(2) for _ in range(length)]


# ------------------------------------------------------------------ oracles


def beaver_oracle(c, a, b, d, e, de, weight):
    z = c + d * b + e * a
    return z if de is None else z + de.scale(weight)


def negate_where_oracle(vector, bits, offset):
    # the parent's BitLT propagate term: a product with public +-1, plus the
    # public bits times the offset
    signs = FieldVector([1 - 2 * bit for bit in bits])
    return vector * signs + FieldVector(bits).scale(offset)


def pair_carries_oracle(r_lo, r_hi, q, codes, offset, skip):
    # the coefficient form of the first carry level, with public c̄ bits
    hi = [code >> 1 for code in codes]
    lo = [code & 1 for code in codes]

    def public(values):
        return FieldVector(values)

    g = (
        public(hi) * r_hi
        + public([h * l for h, l in zip(hi, lo)]) * r_lo
        + public([l * (1 - 2 * h) for h, l in zip(hi, lo)]) * q
    )
    p = (
        public([h * l for h, l in zip(hi, lo)]).scale(offset)
        + public([l * (1 - 2 * h) for h, l in zip(hi, lo)]) * r_hi
        + public([h * (1 - 2 * l) for h, l in zip(hi, lo)]) * r_lo
        + public([(1 - 2 * h) * (1 - 2 * l) for h, l in zip(hi, lo)]) * q
    )
    return g, p.take(slice(skip, None))


def fold_sum(vectors):
    total = vectors[0]
    for vector in vectors[1:]:
        total = total + vector
    return total


# -------------------------------------------------------------------- tests

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(cases, scalars, st.booleans())
def test_beaver_combine(case, weight, with_public):
    c, a, b, d, e = draw_vectors(case, 5)
    de = d * e if with_public else None
    assert (
        field.beaver_combine(c, a, b, d, e, de, weight).elements
        == beaver_oracle(c, a, b, d, e, de, weight).elements
    )


@SETTINGS
@given(cases, st.integers(1, 3))
def test_sub_concat(case, parts):
    lefts, rights = draw_vectors(case, parts), draw_vectors((case[0], case[1] + 7), parts)
    assert (
        field.sub_concat(lefts, rights).elements
        == field.concat([x - y for x, y in zip(lefts, rights)]).elements
    )


@SETTINGS
@given(cases, st.integers(1, 4))
def test_vector_sum(case, parts):
    vectors = draw_vectors(case, parts)
    assert field.vector_sum(vectors).elements == fold_sum(vectors).elements


@SETTINGS
@given(cases, st.lists(scalars, min_size=1, max_size=4))
def test_linear_combination(case, weights):
    vectors = draw_vectors(case, len(weights))
    assert (
        field.linear_combination(weights, vectors).elements
        == fold_sum([v.scale(w) for w, v in zip(weights, vectors)]).elements
    )


@SETTINGS
@given(cases, st.lists(scalars, min_size=2, max_size=4), st.booleans())
def test_macs_match(case, alpha_shares, tamper):
    opened, *macs = draw_vectors(case, len(alpha_shares))
    alpha = sum(alpha_shares) % PRIME
    # a consistent MAC sharing: the last share completes alpha * opened
    macs.append(opened.scale(alpha) - fold_sum(macs))
    if tamper and len(opened):
        opened = opened + FieldVector([1] + [0] * (len(opened) - 1))

    def oracle():
        sigmas = [m - opened.scale(alpha_i) for m, alpha_i in zip(macs, alpha_shares)]
        return not any(fold_sum(sigmas).elements)

    assert field.macs_match(macs, opened, alpha) == oracle()


@SETTINGS
@given(cases, scalars)
def test_add_scaled(case, scalar):
    vector, other = draw_vectors(case, 2)
    assert (
        field.add_scaled(vector, other, scalar).elements
        == (vector + other.scale(scalar)).elements
    )


@SETTINGS
@given(cases)
def test_select(case):
    (vector,), bits = draw_vectors(case, 1), draw_bits(case)
    assert field.select(vector, bits).elements == (vector * FieldVector(bits)).elements


@SETTINGS
@given(cases, scalars)
def test_negate_where(case, offset):
    (vector,), bits = draw_vectors(case, 1), draw_bits(case)
    assert (
        field.negate_where(vector, bits, offset).elements
        == negate_where_oracle(vector, bits, offset).elements
    )


@SETTINGS
@given(cases, st.integers(1, 9))
def test_add_mask(case, low_bits):
    x, high, *bits = draw_vectors(case, 2 + low_bits)
    # blocks hold bits 0, 2, 4, ... then 1, 3, 5, ...
    order = list(range(0, low_bits, 2)) + list(range(1, low_bits, 2))
    expected = fold_sum(
        [x, high.scale(1 << low_bits)] + [block.scale(1 << i) for i, block in zip(order, bits)]
    )
    flat = field.concat(bits)
    assert field.add_mask(x, flat, high, low_bits).elements == expected.elements


@SETTINGS
@given(cases, scalars, st.integers(0, 8))
def test_pair_carries(case, offset, skip):
    r_lo, r_hi, q = draw_vectors(case, 3)
    codes = [random.Random(case[1] + 2).randrange(4) for _ in range(case[0])]
    skip = min(skip, case[0])
    g, p = field.pair_carries(r_lo, r_hi, q, codes, offset, skip)
    g_ref, p_ref = pair_carries_oracle(r_lo, r_hi, q, codes, offset, skip)
    assert (g.elements, p.elements) == (g_ref.elements, p_ref.elements)


def test_pair_carries_combine_two_bits():
    """On bits, with ``q = r_hi·r_lo`` and the constant on this share, the
    level equals ``(g_hi + p_hi g_lo, p_hi p_lo)`` of the two bits' own
    ``g = r·c̄`` and ``p = r xor c̄``."""
    combos = [(rl, rh, cl, ch) for rl in (0, 1) for rh in (0, 1) for cl in (0, 1) for ch in (0, 1)]
    r_lo = FieldVector([rl for rl, _, _, _ in combos])
    r_hi = FieldVector([rh for _, rh, _, _ in combos])
    q = FieldVector([rl * rh for rl, rh, _, _ in combos])
    codes = [2 * ch + cl for _, _, cl, ch in combos]
    g, p = field.pair_carries(r_lo, r_hi, q, codes, offset=1)
    expected_g, expected_p = [], []
    for rl, rh, cl, ch in combos:
        g_lo, p_lo, g_hi, p_hi = rl * cl, rl ^ cl, rh * ch, rh ^ ch
        expected_g.append(g_hi + p_hi * g_lo)
        expected_p.append(p_hi * p_lo)
    assert (g.elements, p.elements) == (expected_g, expected_p)


@SETTINGS
@given(cases, st.integers(1, 3), scalars)
def test_last_share(case, others, scalar):
    total, *shares = draw_vectors(case, 1 + others)
    assert (
        field.last_share(total, shares, scalar).elements
        == (total.scale(scalar) - fold_sum(shares)).elements
    )


def test_length_mismatches_raise():
    short, long = FieldVector([1, 2]), FieldVector([1, 2, 3])
    for call in (
        lambda: field.beaver_combine(short, short, short, short, long),
        lambda: field.sub_concat([short], [long]),
        lambda: field.vector_sum([short, long]),
        lambda: field.linear_combination([1, 1], [short, long]),
        lambda: field.macs_match([short, short], long, 1),
        lambda: field.add_scaled(short, long, 2),
        lambda: field.select(short, [1, 0, 1]),
        lambda: field.negate_where(short, [1], 1),
        lambda: field.add_mask(short, FieldVector([1, 0, 1]), short, 2),
        lambda: field.add_mask(short, FieldVector([1, 0, 1, 1]), long, 2),
        lambda: field.pair_carries(short, short, long, [0, 1, 2]),
        lambda: field.pair_carries(short, short, short, [0]),
        lambda: field.last_share(short, [long]),
        lambda: field.last_share(short, []),
    ):
        with pytest.raises(SMPCError):
            call()
