"""Differential tests: the numpy limb kernel vs the python reference.

Every FieldVector operation, share/reconstruct round-trip, and E4-style
aggregate must produce byte-identical results under both kernels — field
arithmetic is exact, so there is no tolerance anywhere in this file.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smpc import additive, field, limb, shamir
from repro.smpc.cluster import SMPCCluster
from repro.smpc.encoding import FixedPointEncoder
from repro.smpc.field import PRIME, FieldVector

#: Values that stress every limb boundary of the (5 x 26-bit) layout.
EDGE_VALUES = [
    0,
    1,
    2,
    (1 << 26) - 1,
    1 << 26,
    (1 << 26) + 1,
    (1 << 52) - 1,
    1 << 52,
    (1 << 52) + 1,
    1 << 78,
    1 << 104,
    1 << 126,
    (PRIME - 1) // 2,
    (PRIME + 1) // 2,
    PRIME - 2,
    PRIME - 1,
]

elements = st.one_of(
    st.sampled_from(EDGE_VALUES), st.integers(0, PRIME - 1)
)
vectors = st.lists(elements, min_size=0, max_size=24)
paired_vectors = st.integers(0, 24).flatmap(
    lambda n: st.tuples(
        st.lists(elements, min_size=n, max_size=n),
        st.lists(elements, min_size=n, max_size=n),
    )
)


@pytest.fixture
def both_kernels():
    """Run a callable under each kernel and assert identical output."""

    def run(fn):
        results = {}
        for kernel in ("python", "numpy"):
            previous = field.set_kernel(kernel)
            try:
                results[kernel] = fn()
            finally:
                field.set_kernel(previous)
        assert results["python"] == results["numpy"]
        return results["python"]

    return run


def _differential(fn):
    """Non-fixture variant for use inside @given bodies."""
    results = {}
    for kernel in ("python", "numpy"):
        previous = field.set_kernel(kernel)
        try:
            results[kernel] = fn()
        finally:
            field.set_kernel(previous)
    assert results["python"] == results["numpy"]
    return results["python"]


class TestVectorOps:
    @given(paired_vectors)
    def test_add_sub_mul(self, pair):
        a, b = pair
        _differential(lambda: (FieldVector(a) + FieldVector(b)).elements)
        _differential(lambda: (FieldVector(a) - FieldVector(b)).elements)
        _differential(lambda: (FieldVector(a) * FieldVector(b)).elements)

    @given(vectors, elements)
    def test_scale_and_add_scalar(self, a, scalar):
        _differential(lambda: FieldVector(a).scale(scalar).elements)
        _differential(lambda: FieldVector(a).add_scalar(scalar).elements)

    @given(vectors)
    def test_negate_is_zero_take(self, a):
        _differential(lambda: FieldVector(a).negate().elements)
        _differential(lambda: FieldVector(a).is_zero())
        indices = [i for i in range(len(a)) for _ in range(2)]
        _differential(lambda: FieldVector(a).take(indices).elements)

    @given(paired_vectors)
    def test_vector_sum(self, pair):
        a, b = pair
        _differential(
            lambda: field.vector_sum(
                [FieldVector(a), FieldVector(b), FieldVector(a)]
            ).elements
        )

    @given(vectors, vectors, st.integers(0, 24), st.integers(0, 24))
    def test_concat_and_slice(self, a, b, start, stop):
        out = _differential(
            lambda: field.concat([FieldVector(a), FieldVector(b), FieldVector(a)]).elements
        )
        assert out == a + b + a
        sliced = _differential(lambda: FieldVector(a).take(slice(start, stop)).elements)
        assert sliced == a[start:stop]

    @given(
        st.integers(1, 6).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(elements, min_size=0, max_size=4 * width).filter(
                    lambda m: len(m) % width == 0
                ),
                st.integers(0, width - 1),
            )
        ),
        st.data(),
    )
    def test_row_dot(self, case, data):
        width, matrix, start = case
        weights = data.draw(st.lists(elements, min_size=1, max_size=width - start))
        out = _differential(
            lambda: field.row_dot(FieldVector(matrix), width, weights, start).elements
        )
        assert out == [
            sum(w * matrix[row + start + i] for i, w in enumerate(weights)) % PRIME
            for row in range(0, len(matrix), width)
        ]

    def test_row_dot_of_a_bit_matrix_rebuilds_the_masks(self):
        """The comparison protocol's shape: 122 power-of-two weights per row
        (past the limb kernel's lazy-fold limit)."""
        rng = random.Random(3)
        masks = [rng.getrandbits(122) for _ in range(5)]
        bits = [(mask >> i) & 1 for mask in masks for i in range(122)]
        weights = [1 << i for i in range(122)]
        assert _differential(
            lambda: field.row_dot(FieldVector(bits), 122, weights).elements
        ) == masks
        assert _differential(
            lambda: field.row_dot(FieldVector(bits), 122, weights[:40], start=82).elements
        ) == [mask >> 82 for mask in masks]

    def test_row_dot_rejects_misfit_weights(self):
        from repro.errors import SMPCError

        with pytest.raises(SMPCError):
            field.row_dot(FieldVector([1, 2, 3]), 2, [1])
        with pytest.raises(SMPCError):
            field.row_dot(FieldVector([1, 2, 3, 4]), 2, [1, 1], start=1)

    @given(paired_vectors, elements, elements)
    def test_linear_combination(self, pair, s1, s2):
        a, b = pair
        _differential(
            lambda: field.linear_combination(
                [s1, s2], [FieldVector(a), FieldVector(b)]
            ).elements
        )

    @given(vectors)
    @settings(max_examples=25)
    def test_linear_combination_past_fold_limit(self, a):
        """More terms than LAZY_MUL_LIMIT forces the mid-stream fold."""
        terms = limb.LAZY_MUL_LIMIT + 3
        scalars = [(i * 7 + 1) % PRIME for i in range(terms)]
        _differential(
            lambda: field.linear_combination(
                scalars, [FieldVector(a)] * terms
            ).elements
        )

    def test_small_negative_scalar_path(self):
        """Lagrange weights like p-1 take the small-negative fast path."""
        a = EDGE_VALUES
        b = list(reversed(EDGE_VALUES))
        expected = [
            (2 * x + (PRIME - 1) * y) % PRIME for x, y in zip(a, b)
        ]
        out = _differential(
            lambda: field.linear_combination(
                [2, PRIME - 1], [FieldVector(a), FieldVector(b)]
            ).elements
        )
        assert out == expected

    def test_empty_and_single_element(self):
        for data in ([], [PRIME - 1]):
            _differential(lambda d=data: (FieldVector(d) + FieldVector(d)).elements)
            _differential(lambda d=data: (FieldVector(d) * FieldVector(d)).elements)
            _differential(lambda d=data: FieldVector(d).scale(PRIME - 1).elements)


class TestSignedBridge:
    @given(st.lists(st.integers(-(2**62) + 1, 2**62 - 1), max_size=16))
    def test_from_signed_round_trip(self, values):
        array = np.array(values, dtype=np.int64)
        out = _differential(
            lambda: FieldVector.from_signed_int64(array).elements
        )
        assert out == [v % PRIME for v in values]
        back = _differential(
            lambda: FieldVector.from_signed_int64(array).to_signed_int64().tolist()
        )
        assert back == values

    def test_to_signed_overflow_returns_none(self):
        for kernel in ("python", "numpy"):
            previous = field.set_kernel(kernel)
            try:
                assert FieldVector([1 << 62]).to_signed_int64() is None
                assert FieldVector([PRIME - (1 << 62)]).to_signed_int64() is None
            finally:
                field.set_kernel(previous)


class TestSharingRoundTrips:
    @given(vectors, st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_shamir_share_reconstruct(self, data, seed):
        def flow():
            rng = random.Random(seed)
            shared = shamir.share_vector(FieldVector(data), 5, 2, rng)
            shares = [s.elements for s in shared.shares]
            return shares, shamir.reconstruct(shared).elements

        shares, opened = _differential(flow)
        assert opened == [v % PRIME for v in data]

    @given(vectors, st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_additive_share_reconstruct(self, data, seed):
        def flow():
            rng = random.Random(seed)
            alpha, alpha_shares = additive.share_alpha(3, rng)
            shared = additive.share_vector(FieldVector(data), 3, alpha, rng)
            opened = additive.reconstruct(shared)
            additive.check_macs(shared, opened, alpha_shares)
            return [s.elements for s in shared.shares], opened.elements

        _, opened = _differential(flow)
        assert opened == [v % PRIME for v in data]

    def test_high_threshold_shamir(self):
        """Thresholds past 1 exercise the multi-power batched evaluator."""
        data = EDGE_VALUES

        def flow():
            rng = random.Random(99)
            shared = shamir.share_vector(FieldVector(data), 9, 4, rng)
            return shamir.reconstruct(shared).elements

        assert _differential(flow) == data


class TestRandomStreamRegression:
    """Pin: batched draws consume the seeded RNG exactly like the reference
    per-element ``rng.randrange`` loop (the PR's bugfix)."""

    def test_field_vector_random_matches_randrange(self):
        for kernel in ("python", "numpy"):
            previous = field.set_kernel(kernel)
            try:
                r1, r2 = random.Random(1234), random.Random(1234)
                batched = FieldVector.random(257, r1)
                reference = [r2.randrange(PRIME) for _ in range(257)]
                assert batched.elements == reference
                # The streams stay aligned after the draw.
                assert r1.random() == r2.random()
            finally:
                field.set_kernel(previous)

    def test_random_bits_match_randrange(self):
        r1, r2 = random.Random(77), random.Random(77)
        bits = field.random_bit_elements(503, r1)
        reference = [r2.randrange(2) for _ in range(503)]
        assert bits == reference
        assert r1.random() == r2.random()

    def test_kernels_draw_identical_streams(self):
        draws = {}
        for kernel in ("python", "numpy"):
            previous = field.set_kernel(kernel)
            try:
                rng = random.Random(4321)
                draws[kernel] = (
                    FieldVector.random(100, rng).elements,
                    rng.random(),
                )
            finally:
                field.set_kernel(previous)
        assert draws["python"] == draws["numpy"]


class TestEncoderBridges:
    @given(st.lists(st.floats(-1e9, 1e9), max_size=16))
    def test_encode_matches_scalar_path(self, values):
        encoder = FixedPointEncoder()

        def encode():
            return encoder.encode_to_field_vector(values).elements

        out = _differential(encode)
        assert out == [encoder.encode(v) for v in values]

    @given(st.lists(st.floats(-1e9, 1e9), max_size=16))
    def test_decode_matches_scalar_path(self, values):
        encoder = FixedPointEncoder()
        encoded = [encoder.encode(v) for v in values]

        def decode():
            return encoder.decode_field_vector(FieldVector(encoded)).tolist()

        out = _differential(decode)
        assert out == [encoder.decode(e) for e in encoded]

    def test_encode_large_falls_back_exactly(self):
        encoder = FixedPointEncoder()
        big = [float(2**50), -float(2**50)]  # scaled past the int64 bound
        out = _differential(
            lambda: encoder.encode_to_field_vector(big).elements
        )
        assert out == [encoder.encode(v) for v in big]

    def test_encode_out_of_range_raises_both_kernels(self):
        encoder = FixedPointEncoder()
        from repro.errors import SMPCError

        for kernel in ("python", "numpy"):
            previous = field.set_kernel(kernel)
            try:
                with pytest.raises(SMPCError):
                    encoder.encode_to_field_vector([float(2**70)])
            finally:
                field.set_kernel(previous)

    def test_encode_ints_matches_scalar_path(self):
        encoder = FixedPointEncoder()
        values = np.array([0.0, 1.0, -3.0, 2.5, -2.5, 1e15])
        out = _differential(
            lambda: encoder.encode_ints_to_field_vector(values).elements
        )
        assert out == [encoder.encode_int(int(round(v))) for v in values]


class TestClusterAggregates:
    """E4-style aggregates must open bit-identically under both kernels and
    both schemes, with identical round/element telemetry."""

    @pytest.mark.parametrize("scheme", ["shamir", "full_threshold"])
    @pytest.mark.parametrize("operation", ["sum", "min", "max", "union"])
    def test_aggregate_bit_exact(self, scheme, operation):
        rng = np.random.default_rng(5)
        if operation == "union":
            data = [rng.integers(0, 2, 40).astype(float).tolist() for _ in range(3)]
        else:
            data = [rng.normal(0.0, 50.0, 40).tolist() for _ in range(3)]

        def flow():
            cluster = SMPCCluster(n_nodes=3, scheme=scheme, seed=11)
            for i, values in enumerate(data):
                cluster.import_shares(
                    "job", f"w{i}", {"k": {"data": values, "operation": operation}}
                )
            result = cluster.aggregate("job")
            meter = cluster.communication
            return result, (meter.rounds, meter.elements)

        results = {}
        for kernel in ("python", "numpy"):
            previous = field.set_kernel(kernel)
            try:
                results[kernel] = flow()
            finally:
                field.set_kernel(previous)
        assert results["python"] == results["numpy"]

    @pytest.mark.parametrize("scheme", ["shamir", "full_threshold"])
    def test_scalar_and_matrix_payloads(self, scheme):
        def flow():
            cluster = SMPCCluster(n_nodes=3, scheme=scheme, seed=3)
            for i in range(3):
                cluster.import_shares(
                    "j",
                    f"w{i}",
                    {
                        "count": {"data": 10.0 * (i + 1), "operation": "sum"},
                        "cov": {
                            "data": [[1.5 * i, -2.25], [0.125, 7.0 + i]],
                            "operation": "sum",
                        },
                    },
                )
            return cluster.aggregate("j")

        results = {}
        for kernel in ("python", "numpy"):
            previous = field.set_kernel(kernel)
            try:
                results[kernel] = flow()
            finally:
                field.set_kernel(previous)
        assert results["python"] == results["numpy"]
        assert results["numpy"]["count"] == 60.0
