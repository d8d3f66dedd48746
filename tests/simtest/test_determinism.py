"""The harness's core promise: a spec fully determines a simulation.

Same (seed, fault plan, parallelism) must produce a byte-identical
transcript — every scheduling decision, fired fault and invariant line —
on every run.  Pinned at parallelism 1 and 8 per the acceptance bar.
"""

from __future__ import annotations

import pytest

from repro.errors import SimTestError
from repro.simtest.harness import SimSpec, run_simulation

PINNED_SPECS = [
    "seed=1234;par=1;jobs=2;faults=none",
    "seed=1234;par=8;jobs=4;faults=drop@9,cancel@5:job3",
]


class TestByteIdentity:
    @pytest.mark.parametrize("spec_text", PINNED_SPECS)
    def test_two_runs_byte_identical(self, spec_text):
        spec = SimSpec.parse(spec_text)
        first = run_simulation(spec)
        second = run_simulation(spec)
        assert first.ok, first.failures()
        assert first.transcript == second.transcript
        assert [r.status.value for r in first.results] == [
            r.status.value for r in second.results
        ]

    def test_different_seeds_interleave_differently(self):
        """The seed is load-bearing: at parallelism 8 with 4 jobs, two seeds
        must not happen to pick the same interleaving."""
        a = run_simulation(SimSpec.parse("seed=1;par=8;jobs=4;faults=none"))
        b = run_simulation(SimSpec.parse("seed=2;par=8;jobs=4;faults=none"))
        steps_a = [l for l in a.transcript.splitlines() if l.startswith("step ")]
        steps_b = [l for l in b.transcript.splitlines() if l.startswith("step ")]
        assert steps_a != steps_b

    def test_transcript_carries_spec_header_and_invariants(self):
        spec = SimSpec.parse("seed=77;par=2;jobs=2;faults=none")
        report = run_simulation(spec)
        lines = report.transcript.splitlines()
        assert lines[0] == f"# sim {spec.spec()}"
        assert any(l.startswith("invariant telemetry-conservation") for l in lines)
        assert report.transcript.endswith("invariant privacy-monotonicity ok\n")


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec_text", PINNED_SPECS + [
        "seed=0;par=4;jobs=1;faults=delay@3:hospital_b=0.25,crash@7:hospital_a,revive@20:hospital_a",
    ])
    def test_parse_format_round_trip(self, spec_text):
        assert SimSpec.parse(spec_text).spec() == spec_text

    def test_malformed_spec_rejected(self):
        with pytest.raises(SimTestError, match="malformed sim spec"):
            SimSpec.parse("seed=1;jobs=2")

