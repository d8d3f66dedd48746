"""The sampling profiler: collection, attribution, exports, guard rails."""

import json
import threading
import time

import pytest

from repro.observability.profiler import (
    DEFAULT_HZ,
    SamplingProfiler,
)


def busy_wait(seconds: float) -> int:
    """CPU-bound marker function: shows up by name in sampled stacks."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc = (acc * 31 + 7) % 1_000_003
    return acc


class TestSampling:
    def test_collects_samples_from_a_busy_thread(self):
        profiler = SamplingProfiler(hz=250)
        with profiler:
            busy_wait(0.3)
        assert profiler.sample_count > 10
        collapsed = profiler.collapsed()
        assert collapsed, "a busy 300ms window must produce stacks"
        assert "busy_wait" in collapsed
        # collapsed-stack grammar: "frame;frame;frame <count>"
        for line in collapsed.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack
            assert int(count) > 0

    def test_stacks_are_root_to_leaf(self):
        profiler = SamplingProfiler(hz=250)
        with profiler:
            busy_wait(0.3)
        stacks = [s for s in profiler.stack_counts() if any("busy_wait" in f for f in s)]
        assert stacks
        for stack in stacks:
            leaf_index = max(i for i, f in enumerate(stack) if "busy_wait" in f)
            # the marker frame sits at/near the leaf end, not at the root
            assert leaf_index > 0

    def test_start_is_idempotent_and_stop_joins(self):
        profiler = SamplingProfiler(hz=100)
        assert profiler.start()
        assert profiler.start()  # second start: already running, still True
        profiler.stop()
        profiler.stop()  # idempotent
        assert not profiler.running

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)


class TestJobAttribution:
    def test_bound_thread_samples_carry_the_job_id(self):
        profiler = SamplingProfiler(hz=250)
        # The map a service hands over from its transport (Transport.job_scope
        # fills it; tests/federation/test_transport.py::TestJobScope).
        thread_jobs: dict[int, str] = {}
        profiler.thread_jobs = thread_jobs

        def work():
            thread_jobs[threading.get_ident()] = "job-A"
            try:
                busy_wait(0.3)
            finally:
                del thread_jobs[threading.get_ident()]

        with profiler:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert "job-A" in profiler.jobs()
        job_collapsed = profiler.collapsed(job="job-A")
        assert "busy_wait" in job_collapsed
        # the unbound main thread's samples do not leak into the job view
        assert profiler.stack_counts(job="job-A") != profiler.stack_counts()


class TestSimtestVeto:
    @staticmethod
    def _simulated_service():
        from repro.api.service import MIPService
        from repro.data.cohorts import CohortSpec, generate_cohort
        from repro.federation.controller import create_federation
        from repro.simtest.runtime import SimRuntime

        federation = create_federation(
            {"w0": {"dementia": generate_cohort(CohortSpec("edsd", 30, seed=1))}},
            sim=SimRuntime(seed=1),
        )
        return federation, MIPService(federation, aggregation="plain")

    def test_profiler_refuses_to_start_under_simulation(self):
        federation, service = self._simulated_service()
        try:
            profiler = SamplingProfiler(hz=100)
            service.attach_profiler(profiler)
            assert not profiler.running
            assert not any(t.name == "repro-profiler" for t in threading.enumerate())
            # stop on a never-started profiler stays safe
            profiler.stop()
        finally:
            service.shutdown()
            federation.shutdown()

    def test_service_attach_profiler_reports_the_veto(self):
        federation, service = self._simulated_service()
        profiler = SamplingProfiler(hz=100)
        try:
            assert service.attach_profiler(profiler) is False
            assert service.engine.queue.profiler is None
        finally:
            service.shutdown()
            federation.shutdown()
        # The veto belongs to the service; the profiler itself always starts.
        try:
            assert profiler.start() is True
            assert profiler.running
        finally:
            profiler.stop()


class TestExports:
    def test_speedscope_schema(self):
        profiler = SamplingProfiler(hz=250)
        with profiler:
            busy_wait(0.25)
        payload = profiler.speedscope(name="unit")
        json.dumps(payload)  # serializable
        assert payload["$schema"].endswith("file-format-schema.json")
        profile = payload["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        n_frames = len(payload["shared"]["frames"])
        assert n_frames > 0
        for sample in profile["samples"]:
            assert all(0 <= index < n_frames for index in sample)
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]), rel=1e-6)

    def test_summary_counts(self):
        profiler = SamplingProfiler(hz=250)
        with profiler:
            busy_wait(0.2)
        summary = profiler.summary()
        assert summary["hz"] == 250
        assert summary["ticks"] == profiler.sample_count
        assert summary["unique_stacks"] > 0
        assert summary["elapsed_seconds"] > 0


class TestOverhead:
    def test_overhead_under_budget_at_default_hz(self):
        """The sampler must cost <5% wall time on a CPU-bound workload."""
        budget = 0.05
        min_pairs, max_pairs = 5, 15

        def fixed_work() -> int:
            acc = 0
            for i in range(400_000):
                acc = (acc * 31 + i) % 1_000_003
            return acc

        def timed(profiled: bool) -> float:
            profiler = SamplingProfiler(hz=DEFAULT_HZ)
            if profiled:
                profiler.start()
            t0 = time.perf_counter()
            fixed_work()
            elapsed = time.perf_counter() - t0
            profiler.stop()
            return elapsed

        # Plain and profiled rounds alternate, so a drift in CPU speed over
        # the test (+-20 % over minutes on a shared machine) reaches both
        # minima alike instead of landing on whichever block ran second.
        # Both minima only fall towards their floors as rounds are added, and
        # a sampler that really costs 5 % keeps the floors 5 % apart, so
        # rounds past the fifth pair are spent only while one lucky plain
        # round has not yet been matched by a profiled one.
        plain = profiled = overhead = float("inf")
        for pair in range(max_pairs):
            plain = min(plain, timed(False))
            profiled = min(profiled, timed(True))
            overhead = profiled / plain - 1.0
            if pair + 1 >= min_pairs and overhead < budget:
                break
        assert overhead < budget, (
            f"profiler overhead {overhead:.1%} exceeds the {budget:.0%} budget"
        )
