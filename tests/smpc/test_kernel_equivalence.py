"""Share/reconstruct round trips of the field kernel under both schemes.

Values sit on every 26-bit boundary of a field element and at both ends of
the field, so a carry or reduction slip in the share-wise arithmetic shows
as a wrong opened value.  Field arithmetic is exact: there is no tolerance
anywhere in this file.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smpc import additive, shamir
from repro.smpc.field import PRIME, FieldVector

#: Values on each 26-bit boundary of a field element and at the field's ends.
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


class TestSharingRoundTrips:
    @given(vectors, st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_shamir_share_reconstruct(self, data, seed):
        rng = random.Random(seed)
        shared = shamir.share_vector(FieldVector(data), 5, 2, rng)
        assert len(shared.shares) == 5
        assert shamir.reconstruct(shared).elements == [v % PRIME for v in data]

    @given(vectors, st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_additive_share_reconstruct(self, data, seed):
        rng = random.Random(seed)
        alpha, alpha_shares = additive.share_alpha(3, rng)
        shared = additive.share_vector(FieldVector(data), 3, alpha, rng)
        opened = additive.reconstruct(shared)
        additive.check_macs(shared, opened, alpha_shares)
        assert opened.elements == [v % PRIME for v in data]

    def test_high_threshold_shamir(self):
        """Thresholds past 1 exercise the multi-power column-wise evaluator."""
        rng = random.Random(99)
        shared = shamir.share_vector(FieldVector(EDGE_VALUES), 9, 4, rng)
        assert shamir.reconstruct(shared).elements == EDGE_VALUES
