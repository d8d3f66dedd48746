"""The fuzzer: deterministic sampling, greedy shrinking, corpus, CLI."""

from __future__ import annotations

import random
import re

import pytest

from repro import cli
from repro.simtest.faults import FaultPlan
from repro.simtest.fuzz import (
    fuzz,
    read_corpus,
    run_one,
    sample_spec,
    shrink,
    write_corpus,
)
from repro.simtest.harness import SimSpec


class TestSampling:
    def test_sampling_is_seed_deterministic(self):
        draw = lambda: [  # noqa: E731
            sample_spec(random.Random("simtest-fuzz-9")).spec() for _ in range(20)
        ]
        assert draw() == draw()

    def test_samples_stay_in_bounds(self):
        rng = random.Random("simtest-fuzz-3")
        for _ in range(200):
            spec = sample_spec(rng)
            assert 1 <= spec.jobs <= 4
            assert spec.parallelism in (1, 2, 4, 8)
            assert len(spec.faults) <= 3
            # Every sampled spec round-trips through its own string form.
            assert SimSpec.parse(spec.spec()) == spec


class TestShrinking:
    def test_shrink_strips_irrelevant_faults(self):
        spec = SimSpec(
            seed=1, parallelism=8, jobs=4,
            faults=FaultPlan.parse("drop@5,crash@9:hospital_a,reorder@3"),
        )

        def fails_iff_crash_present(candidate: SimSpec) -> bool:
            return any(f.kind == "crash" for f in candidate.faults)

        shrunk = shrink(spec, still_fails=fails_iff_crash_present)
        assert shrunk.faults.spec() == "crash@9:hospital_a"
        assert shrunk.jobs == 1
        assert shrunk.parallelism == 1

    def test_shrink_keeps_required_concurrency(self):
        spec = SimSpec(seed=1, parallelism=8, jobs=3)

        def fails_iff_concurrent(candidate: SimSpec) -> bool:
            return candidate.parallelism >= 2 and candidate.jobs >= 2

        shrunk = shrink(spec, still_fails=fails_iff_concurrent)
        assert (shrunk.parallelism, shrunk.jobs) == (2, 2)

    def test_shrink_is_a_fixpoint(self):
        spec = SimSpec(seed=1, parallelism=4, jobs=2,
                       faults=FaultPlan.parse("drop@5,reorder@3"))
        predicate = lambda candidate: True  # noqa: E731  (everything fails)
        once = shrink(spec, still_fails=predicate)
        assert shrink(once, still_fails=predicate) == once


class TestFuzzSessions:
    def test_short_session_is_clean(self):
        result = fuzz(runs=3, seed=0)
        assert result.ok
        assert result.runs == 3
        assert result.command is None

    def test_budget_stops_early(self):
        result = fuzz(runs=10_000, seed=0, budget_seconds=0.0)
        assert result.runs == 0

    def test_emit_reports_every_run(self):
        lines: list[str] = []
        fuzz(runs=2, seed=0, emit=lines.append)
        assert len(lines) == 2
        assert all("ok seed=" in line for line in lines)

    def test_session_reports_unfired_faults_without_failing(self, monkeypatch):
        import repro.simtest.fuzz as fuzz_mod

        spec = SimSpec.parse("seed=6;par=1;jobs=1;faults=drop@3,drop@999")
        monkeypatch.setattr(fuzz_mod, "sample_spec", lambda rng, master_crash=False: spec)
        lines: list[str] = []
        result = fuzz(runs=1, seed=0, emit=lines.append)
        assert result.ok
        assert lines == [f"[1/1] ok {spec.spec()} (unfired: drop@999)"]
        # The session records the scenario without the fault that never fired.
        assert result.specs == [SimSpec.parse("seed=6;par=1;jobs=1;faults=drop@3")]

    def test_fired_spec_without_an_unfired_master_crash_replays_the_run(self):
        spec = SimSpec.parse(
            "seed=3;par=1;jobs=1;faults=crash@999:master;algo=logistic_regression"
        )
        outcome = run_one(spec)
        assert outcome.unfired == ["crash@999:master"]
        fired = outcome.fired_spec()
        assert fired == spec.replace(faults=FaultPlan())
        replay = run_one(fired)
        assert not replay.failed and replay.unfired == []
        assert [r.result for r in replay.report.results] == [
            r.result for r in outcome.report.results
        ]


class TestCorpus:
    def test_round_trip(self, tmp_path):
        specs = [
            SimSpec.parse("seed=1;par=1;jobs=1;faults=none"),
            SimSpec.parse("seed=2;par=8;jobs=4;faults=drop@5,cancel@2:job1"),
        ]
        path = tmp_path / "corpus.txt"
        write_corpus(str(path), specs)
        assert read_corpus(str(path)) == specs
        # Header comment and blank lines are ignored.
        path.write_text(path.read_text() + "\n# trailing comment\n\n")
        assert read_corpus(str(path)) == specs


class TestCLI:
    def test_replay_clean_scenario_exits_zero(self, capsys):
        code = cli.main(["fuzz", "--replay", "seed=6;par=1;jobs=1;faults=none"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# sim seed=6;par=1;jobs=1;faults=none")
        assert "invariant telemetry-conservation ok" in out

    def test_replay_fails_when_a_fault_never_fires(self, capsys):
        code = cli.main(["fuzz", "--replay", "seed=6;par=1;jobs=1;faults=drop@999"])
        out = capsys.readouterr().out
        assert code == 1
        assert "invariant telemetry-conservation ok" in out
        assert "FAIL fault drop@999 never fired" in out

    def test_corpus_fails_a_line_whose_fault_never_fires(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "seed=6;par=1;jobs=1;faults=drop@3\n"
            "seed=6;par=1;jobs=1;faults=drop@3,drop@999\n"
        )
        code = cli.main(["fuzz", "--corpus", str(corpus)])
        out = capsys.readouterr().out
        assert code == 1
        assert "ok seed=6;par=1;jobs=1;faults=drop@3\n" in out
        assert "FAIL seed=6;par=1;jobs=1;faults=drop@3,drop@999\n" in out
        assert "  fault drop@999 never fired" in out
        assert "corpus: 1/2 ok" in out

    def test_replay_malformed_spec_exits_two(self, capsys):
        code = cli.main(["fuzz", "--replay", "not-a-spec"])
        assert code == 2
        assert "malformed sim spec" in capsys.readouterr().err

    def test_fuzz_session_and_corpus_flow(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        code = cli.main([
            "fuzz", "--runs", "2", "--seed", "4",
            "--write-corpus", str(corpus),
        ])
        session = capsys.readouterr().out
        assert code == 0
        assert "all clean" in session
        # The session's scenarios carry faults that never fire; the corpus
        # pins each scenario without them, so every line replays clean.
        unfired = [
            fault
            for group in re.findall(r"\(unfired: ([^)]*)\)", session)
            for fault in group.split(",")
        ]
        assert unfired
        pinned = corpus.read_text()
        assert not any(fault in pinned for fault in unfired)
        code = cli.main(["fuzz", "--corpus", str(corpus)])
        assert code == 0
        assert "corpus: 2/2 ok" in capsys.readouterr().out

    def test_replay_failing_scenario_exits_one(self, monkeypatch, capsys):
        import dataclasses

        from repro.core.jobs import ExperimentQueue

        real = ExperimentQueue._collect_telemetry

        def leaky(self, experiment_id):
            telemetry = real(self, experiment_id)
            return dataclasses.replace(telemetry, messages=telemetry.messages - 1)

        monkeypatch.setattr(ExperimentQueue, "_collect_telemetry", leaky)
        code = cli.main(["fuzz", "--replay", "seed=6;par=1;jobs=1;faults=none"])
        out = capsys.readouterr().out
        assert code == 1
        assert "invariant telemetry-conservation FAIL" in out
        assert "FAIL telemetry-conservation" in out
