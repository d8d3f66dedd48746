"""Online protocols: FT (SPDZ-style) and Shamir, over the same op set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smpc.encoding import FixedPointEncoder
from repro.smpc.field import FieldVector
from repro.smpc.protocol import FTProtocol, ShamirProtocol


def protocols():
    return [
        pytest.param(lambda: FTProtocol(3, seed=5), id="full_threshold"),
        pytest.param(lambda: ShamirProtocol(3, seed=5), id="shamir"),
    ]


def encode(protocol, values):
    return FieldVector(protocol.encoder.encode_vector(np.asarray(values, dtype=float)))


def decode(protocol, vector):
    return protocol.encoder.decode_vector(vector.elements)


@pytest.mark.parametrize("make", protocols())
class TestBasicOps:
    def test_input_open_roundtrip(self, make):
        protocol = make()
        shared = protocol.input_vector(encode(protocol, [1.5, -2.25]))
        assert decode(protocol, protocol.open(shared)).tolist() == [1.5, -2.25]

    def test_sum_inputs(self, make):
        protocol = make()
        inputs = [protocol.input_vector(encode(protocol, [1.0, 2.0])),
                  protocol.input_vector(encode(protocol, [0.5, -1.0]))]
        opened = decode(protocol, protocol.open(protocol.sum_inputs(inputs)))
        assert opened.tolist() == [1.5, 1.0]

    def test_mul(self, make):
        protocol = make()
        a = protocol.input_vector(encode(protocol, [3.0, -2.0]))
        b = protocol.input_vector(encode(protocol, [4.0, 5.0]))
        product = protocol.mul(a, b)
        # fixed-point product carries one extra scale factor; for exactly
        # divisible products a public inverse-scale works
        from repro.smpc.field import finv

        rescaled = protocol.scale(product, finv(protocol.encoder.scale))
        assert decode(protocol, protocol.open(rescaled)).tolist() == [12.0, -10.0]

    def test_mul_fixed_point_truncation(self, make):
        """General products need the truncation protocol, not a public
        inverse (the scale rarely divides the raw product)."""
        protocol = make()
        a = protocol.input_vector(encode(protocol, [1.7, -2.45]))
        b = protocol.input_vector(encode(protocol, [3.3, 0.61]))
        product = protocol.mul_fixed_point(a, b)
        opened = decode(protocol, protocol.open(product))
        assert opened == pytest.approx([5.61, -1.4945], abs=1e-3)

    def test_truncate_floor_semantics(self, make):
        protocol = make()
        scale = protocol.encoder.scale
        from repro.smpc.field import PRIME

        # shared raw integers 7*scale + 1 and -(3*scale) - 1
        raw = FieldVector([7 * scale + 1, (-(3 * scale) - 1) % PRIME])
        shared = protocol.input_vector(raw)
        truncated = protocol.open(protocol.truncate(shared))
        values = [protocol.encoder.decode_int(e) for e in truncated.elements]
        assert values == [7, -4]  # floor division toward -inf

    def test_scale_and_add_public(self, make):
        protocol = make()
        a = protocol.input_vector(encode(protocol, [2.0]))
        shifted = protocol.add_public(a, encode(protocol, [0.5]))
        assert decode(protocol, protocol.open(shifted)).tolist() == [2.5]


@pytest.mark.parametrize("make", protocols())
class TestComparison:
    def test_ltz_signs(self, make):
        protocol = make()
        shared = protocol.input_vector(encode(protocol, [-1.0, 0.0, 2.5, -0.001]))
        bits = protocol.open(protocol.ltz(shared))
        assert bits.elements == [1, 0, 0, 1]

    def test_minimum_inputs(self, make):
        protocol = make()
        inputs = [protocol.input_vector(encode(protocol, [4.0, -2.0])),
                  protocol.input_vector(encode(protocol, [1.0, -7.5])),
                  protocol.input_vector(encode(protocol, [2.0, 0.0]))]
        opened = decode(protocol, protocol.open(protocol.minimum_inputs(inputs)))
        assert opened.tolist() == [1.0, -7.5]

    def test_maximum_inputs(self, make):
        protocol = make()
        inputs = [protocol.input_vector(encode(protocol, [4.0, -2.0])),
                  protocol.input_vector(encode(protocol, [1.0, -7.5]))]
        opened = decode(protocol, protocol.open(protocol.maximum_inputs(inputs)))
        assert opened.tolist() == [4.0, -2.0]

    def test_union_inputs(self, make):
        protocol = make()
        encoder = protocol.encoder
        first = protocol.input_vector(FieldVector([encoder.encode_int(v) for v in [1, 0, 1, 0]]))
        second = protocol.input_vector(FieldVector([encoder.encode_int(v) for v in [0, 0, 1, 1]]))
        opened = protocol.open(protocol.union_inputs([first, second]))
        assert [encoder.decode_int(e) for e in opened.elements] == [1, 0, 1, 1]

@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=4))
def test_ltz_property(values):
    protocol = ShamirProtocol(3, seed=1)
    shared = protocol.input_vector(encode(protocol, values))
    bits = protocol.open(protocol.ltz(shared))
    rounded = [round(v * protocol.encoder.scale) for v in values]
    assert bits.elements == [1 if r < 0 else 0 for r in rounded]


class TestCostOrdering:
    """The paper's security/efficiency trade-off: FT costs more than Shamir."""

    def test_ft_sends_more_elements_for_same_work(self):
        ft = FTProtocol(3, seed=1)
        sh = ShamirProtocol(3, seed=1)
        for protocol in (ft, sh):
            inputs = [protocol.input_vector(encode(protocol, [1.0] * 16)) for _ in range(3)]
            protocol.open(protocol.sum_inputs(inputs))
        assert ft.meter.elements > sh.meter.elements
        assert ft.meter.rounds > sh.meter.rounds

    def test_ft_offline_deals_more_material(self):
        ft = FTProtocol(3, seed=1)
        sh = ShamirProtocol(3, seed=1)
        for protocol in (ft, sh):
            a = protocol.input_vector(encode(protocol, [1.0] * 8))
            b = protocol.input_vector(encode(protocol, [2.0] * 8))
            protocol.open(protocol.mul(a, b))
        assert ft.dealer.usage.elements_dealt > sh.dealer.usage.elements_dealt


class TestConfiguration:
    def test_min_parties(self):
        with pytest.raises(Exception):
            FTProtocol(1)

    def test_shamir_threshold_rule(self):
        with pytest.raises(Exception):
            ShamirProtocol(4, threshold=2)  # t < n/2 required for multiplication
