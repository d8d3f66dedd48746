"""The batched comparison path: flat bit-matrix LTZ with a log-depth carry
tree, tournament min/max, and one protocol run per operation in the cluster.

Every test runs under the python *and* the numpy kernel and under Shamir
*and* full-threshold sharing; results are exact functions of the inputs, so
there is no tolerance anywhere in this file.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, SMPCError
from repro.smpc import field
from repro.smpc.cluster import NoiseSpec, SMPCCluster
from repro.smpc.encoding import FixedPointEncoder
from repro.smpc.field import PRIME, FieldVector
from repro.smpc.protocol import FTProtocol, ShamirProtocol

SCHEMES = {"shamir": ShamirProtocol, "full_threshold": FTProtocol}


@pytest.fixture(params=["python", "numpy"])
def kernel(request):
    previous = field.set_kernel(request.param)
    yield request.param
    field.set_kernel(previous)


@pytest.fixture(params=sorted(SCHEMES))
def scheme(request):
    return request.param


def share_ints(protocol, values):
    return protocol.input_vector(FieldVector([v % PRIME for v in values]))


def open_ints(protocol, shared):
    return [protocol.encoder.decode_int(e) for e in protocol.open(shared).elements]


def tree_widths(n_bits):
    widths = [n_bits]
    while widths[-1] > 1:
        widths.append(widths[-1] - widths[-1] // 2)
    return widths


class TestLtzBoundaries:
    # comparison_bits = magnitude_bits + 2; the widths below give carry trees
    # with an odd node at several levels (82: 41, 21, 11, 3), at one level,
    # and at none (16).
    @pytest.mark.parametrize("magnitude_bits", [80, 11, 9, 5, 14])
    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_signs_at_the_edges_of_the_range(self, kernel, scheme, magnitude_bits, length):
        encoder = FixedPointEncoder(fractional_bits=2, magnitude_bits=magnitude_bits)
        protocol = SCHEMES[scheme](3, seed=length, encoder=encoder)
        top = 1 << protocol.comparison_bits
        edges = [-top + 1, -1, 0, 1, top - 1, -(top // 2), top // 2]
        values = [edges[(i + length) % len(edges)] for i in range(length)]
        assert open_ints(protocol, protocol.ltz(share_ints(protocol, values))) == [
            int(v < 0) for v in values
        ]

    def test_widths_cover_odd_levels(self):
        assert [w % 2 for w in tree_widths(82)].count(1) >= 4  # 41, 21, 11, 3, (1)
        assert all(w % 2 == 0 for w in tree_widths(16)[:-1])

    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_equal_operands_are_not_less(self, kernel, scheme, length):
        protocol = SCHEMES[scheme](3, seed=9)
        values = [(-1) ** i * (12345 + i) for i in range(length)]
        a, b = share_ints(protocol, values), share_ints(protocol, values)
        assert open_ints(protocol, protocol.ltz(protocol.sub(a, b))) == [0] * length


class TestTruncate:
    @pytest.mark.parametrize("fractional_bits", [1, 3, 7, 16])
    def test_exact_floor_division(self, kernel, scheme, fractional_bits):
        protocol = SCHEMES[scheme](3, seed=fractional_bits)
        bound = 1 << protocol.truncation_bits
        rng = np.random.default_rng(fractional_bits)
        values = [-bound + 1, bound - 1, -1, 0, 1, (1 << fractional_bits) - 1, -(1 << fractional_bits)]
        values += [int(v) for v in rng.integers(-(2**62), 2**62, 5)]
        truncated = protocol.truncate(share_ints(protocol, values), fractional_bits)
        opened = protocol.open(truncated).elements
        assert opened == [(v >> fractional_bits) % PRIME for v in values]


class TestTournament:
    @pytest.mark.parametrize("n_inputs", [1, 2, 3, 4, 5])
    def test_min_max_match_numpy(self, kernel, scheme, n_inputs):
        protocol = SCHEMES[scheme](3, seed=n_inputs)
        rng = np.random.default_rng(n_inputs)
        data = rng.integers(-(2**40), 2**40, (n_inputs, 3))
        data[:, 2] = data[0, 2]  # a column of ties
        low = protocol.minimum_inputs([share_ints(protocol, row.tolist()) for row in data])
        high = protocol.maximum_inputs([share_ints(protocol, row.tolist()) for row in data])
        assert open_ints(protocol, low) == data.min(axis=0).tolist()
        assert open_ints(protocol, high) == data.max(axis=0).tolist()

    @pytest.mark.parametrize("n_inputs", [2, 3, 4, 5])
    def test_union_matches_numpy(self, kernel, scheme, n_inputs):
        protocol = SCHEMES[scheme](3, seed=n_inputs)
        # disjoint membership: each position is claimed by at most one input
        owner = np.array([0, -1, 1, n_inputs - 1, -1, 0])
        data = np.array([(owner == i).astype(int) for i in range(n_inputs)])
        union = protocol.union_inputs([share_ints(protocol, row.tolist()) for row in data])
        assert open_ints(protocol, union) == data.any(axis=0).astype(int).tolist()

    def test_empty_inputs_rejected(self, scheme):
        protocol = SCHEMES[scheme](3, seed=1)
        with pytest.raises(SMPCError):
            protocol.minimum_inputs([])
        with pytest.raises(SMPCError):
            protocol.maximum_inputs([])


# ------------------------------------------------------------ cluster batching

_OPERATIONS = ("sum", "min", "max", "union")
_shapes = st.sampled_from([None, (1,), (3,), (2, 2)])


@st.composite
def transfer_jobs(draw):
    """Per-worker payloads with mixed operations, scalars and nested shapes."""
    n_workers = draw(st.integers(2, 4))
    n_keys = draw(st.integers(1, 5))
    layout = [(draw(st.sampled_from(_OPERATIONS)), draw(_shapes)) for _ in range(n_keys)]
    payloads = []
    for worker in range(n_workers):
        payload = {}
        for index, (operation, shape) in enumerate(layout):
            size = 1 if shape is None else int(np.prod(shape))
            if operation == "union":
                flat = [float(draw(st.integers(0, 1)) and worker == 0) for _ in range(size)]
            else:
                flat = draw(
                    st.lists(
                        st.floats(-1e6, 1e6, allow_nan=False, width=32),
                        min_size=size,
                        max_size=size,
                    )
                )
            data = flat[0] if shape is None else np.array(flat).reshape(shape).tolist()
            payload[f"k{index}"] = {"data": data, "operation": operation}
        payloads.append(payload)
    return payloads


def _aggregate(scheme, seed, payloads, noise, per_key):
    cluster = SMPCCluster(3, scheme, seed=seed)
    keys = list(payloads[0])
    jobs = [[key] for key in keys] if per_key else [keys]
    result = {}
    for number, job_keys in enumerate(jobs):
        for worker, payload in enumerate(payloads):
            cluster.import_shares(
                f"job{number}", f"w{worker}", {key: payload[key] for key in job_keys}
            )
        result.update(cluster.aggregate(f"job{number}", noise=noise))
    return result


@pytest.mark.parametrize("kernel_name", ["python", "numpy"])
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@settings(max_examples=8, deadline=None)
@given(payloads=transfer_jobs(), noise_seed=st.one_of(st.none(), st.integers(0, 2**16)))
def test_batched_job_equals_one_job_per_key(kernel_name, scheme_name, payloads, noise_seed):
    """One protocol run per operation opens exactly what one run per key did,
    including seeded noisy sums (the per-key noise draw order is kept)."""
    noise = None if noise_seed is None else NoiseSpec("gaussian", 0.5)
    seed = 7 if noise_seed is None else noise_seed
    previous = field.set_kernel(kernel_name)
    try:
        batched = _aggregate(scheme_name, seed, payloads, noise, per_key=False)
        separate = _aggregate(scheme_name, seed, payloads, noise, per_key=True)
    finally:
        field.set_kernel(previous)
    assert batched == separate
    assert list(batched) == list(payloads[0])


class TestPerKeyErrors:
    def _job(self, cluster, second_worker_bad_key):
        good = {"a": {"data": [1.0, 2.0], "operation": "min"},
                "b": {"data": 3.0, "operation": "sum"}}
        cluster.import_shares("j", "w1", {**good, "bad": {"data": [1.0, 2.0], "operation": "max"}})
        cluster.import_shares("j", "w2", {**good, "bad": second_worker_bad_key})

    def test_conflicting_operations(self, scheme):
        cluster = SMPCCluster(3, scheme, seed=1)
        self._job(cluster, {"data": [1.0, 2.0], "operation": "min"})
        with pytest.raises(SMPCError, match="key 'bad': conflicting operations"):
            cluster.aggregate("j")

    def test_shape_mismatch(self, scheme):
        cluster = SMPCCluster(3, scheme, seed=1)
        self._job(cluster, {"data": [1.0, 2.0, 3.0], "operation": "max"})
        with pytest.raises(SMPCError, match="key 'bad': shape mismatch"):
            cluster.aggregate("j")

    def test_unsupported_operation(self, scheme):
        cluster = SMPCCluster(3, scheme, seed=1)
        cluster.import_shares("j", "w1", {"a": {"data": 1.0, "operation": "sum"},
                                          "bad": {"data": 1.0, "operation": "median"}})
        cluster.import_shares("j", "w2", {"a": {"data": 1.0, "operation": "sum"},
                                          "bad": {"data": 2.0, "operation": "median"}})
        with pytest.raises(SMPCError, match="unsupported SMPC operation 'median'"):
            cluster.aggregate("j")
        assert cluster.has_job("j")  # nothing was opened, nothing retained as a result
        with pytest.raises(SMPCError):
            cluster.get_result("j")


# ------------------------------------------------------------- active security


class _TamperingOpen:
    """Corrupt one share (or MAC share) of the ``target``-th opened value."""

    def __init__(self, protocol, target, what):
        self.protocol, self.target, self.what = protocol, target, what
        self.calls = 0
        self._open = protocol.open
        protocol.open = self

    def __call__(self, shared):
        self.calls += 1
        if self.calls == self.target:
            victim = getattr(shared, self.what)[1]
            position = len(victim) - 1  # the `e` half of a fused d||e open
            victim.elements[position] = (victim.elements[position] + 1) % PRIME
        return self._open(shared)


class TestTamperDetection:
    @pytest.mark.parametrize("what", ["shares", "macs"])
    def test_fused_beaver_open_is_mac_checked(self, kernel, what):
        protocol = FTProtocol(3, seed=3)
        a, b = share_ints(protocol, [3, 4]), share_ints(protocol, [5, -6])
        _TamperingOpen(protocol, 1, what)
        with pytest.raises(IntegrityError):
            protocol.mul(a, b)

    # One ltz makes 1 masked open + one fused open per carry-tree level.
    @pytest.mark.parametrize("target", range(1, 9))
    @pytest.mark.parametrize("what", ["shares", "macs"])
    def test_every_open_inside_ltz_is_mac_checked(self, kernel, target, what):
        protocol = FTProtocol(3, seed=4)
        x = share_ints(protocol, [-5, 7, 0])
        tamper = _TamperingOpen(protocol, target, what)
        with pytest.raises(IntegrityError):
            protocol.ltz(x)
        assert tamper.calls == target

    def test_clean_ltz_makes_eight_opens(self, kernel):
        protocol = FTProtocol(3, seed=4)
        tamper = _TamperingOpen(protocol, 0, "shares")
        protocol.ltz(share_ints(protocol, [-5, 7, 0]))
        assert tamper.calls == 1 + len(tree_widths(protocol.comparison_bits)) - 1 == 8


# ------------------------------------------------------------------ round cost


class TestRoundCeilings:
    """Pinned so the bit-by-bit chain (1492 / 500 rounds) cannot come back."""

    CEILING = {"full_threshold": 100, "shamir": 40}

    def _min_job(self, scheme, n_keys):
        cluster = SMPCCluster(3, scheme, seed=7)
        for worker in range(4):
            cluster.import_shares("j", f"w{worker}", {
                f"m{k}": {"data": float(worker * (-1) ** k), "operation": "min" if k % 2 else "max"}
                for k in range(n_keys)
            })
        cluster.aggregate("j")
        return cluster.communication.rounds

    def test_min_of_four_scalars(self, kernel, scheme):
        assert self._min_job(scheme, 1) <= self.CEILING[scheme]

    def test_rounds_do_not_grow_with_key_count(self, kernel, scheme):
        assert self._min_job(scheme, 6) == self._min_job(scheme, 1)

    def test_multiplication_opens_once(self, scheme):
        protocol = SCHEMES[scheme](3, seed=1)
        a, b = share_ints(protocol, [2]), share_ints(protocol, [3])
        before = protocol.meter.rounds
        protocol.mul(a, b)
        assert protocol.meter.rounds - before == (3 if scheme == "full_threshold" else 1)
