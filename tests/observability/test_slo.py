"""SLO baselines and the health comparator: edges the CI gate leans on."""

import json

import pytest

from repro import cli
from repro.observability.slo import (
    BaselineStore,
    BenchResult,
    HealthReport,
    Verdict,
    compare,
    evaluate,
    load_bench_results,
    percentile,
)


def bench(name="b", samples=(1.0, 2.0, 3.0), **config):
    return BenchResult.from_samples(name, samples, config=config)


class TestPercentile:
    def test_interpolates_like_numpy_default(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.25) == pytest.approx(1.75)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestBenchResult:
    def test_from_samples_fills_the_stable_schema(self):
        result = bench(samples=[0.2, 0.1, 0.3], workers=4)
        assert result.p50 == pytest.approx(0.2)
        assert result.wall_s == pytest.approx(0.6)
        assert result.config == {"workers": 4}
        round_trip = BenchResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert round_trip.metrics() == result.metrics()

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            BenchResult.from_samples("b", [])


class TestComparator:
    def test_missing_baseline_is_new(self):
        verdict = compare(bench(), None)
        assert verdict.status == "new"
        assert "no baseline on record" in verdict.notes

    def test_new_metric_in_current_run(self):
        # baseline predates the wall_s metric
        verdict = compare(bench(), {"p50": 2.0, "p95": 3.0})
        assert verdict.status == "ok"
        assert verdict.metrics["wall_s"]["status"] == "new"

    def test_metric_missing_from_current_run_warns(self):
        current = BenchResult(name="b", p50=1.0)  # no p95/wall_s computed
        verdict = compare(current, {"p50": 1.0, "p95": 3.0})
        assert verdict.status == "warn"
        assert verdict.metrics["p95"]["status"] == "missing"

    def test_tolerance_boundaries_are_exclusive(self):
        baseline = {"p50": 1.0, "p95": 1.0, "wall_s": 3.0}
        exactly_warn = BenchResult(name="b", p50=1.10, p95=1.0, wall_s=3.0)
        assert compare(exactly_warn, baseline).status == "ok"
        just_over_warn = BenchResult(name="b", p50=1.101, p95=1.0, wall_s=3.0)
        assert compare(just_over_warn, baseline).status == "warn"
        exactly_fail = BenchResult(name="b", p50=1.20, p95=1.0, wall_s=3.0)
        assert compare(exactly_fail, baseline).status == "warn"
        just_over_fail = BenchResult(name="b", p50=1.201, p95=1.0, wall_s=3.0)
        assert compare(just_over_fail, baseline).status == "regression"

    def test_improvement_is_ok(self):
        baseline = {"p50": 2.0, "p95": 2.0, "wall_s": 6.0}
        verdict = compare(bench(samples=[0.5, 0.5, 0.5]), baseline)
        assert verdict.status == "ok"
        assert verdict.notes == []

    def test_zero_baseline_regresses_on_any_positive_current(self):
        verdict = compare(
            BenchResult(name="b", p50=0.1, p95=0.1, wall_s=0.1),
            {"p50": 0.0, "p95": 0.0, "wall_s": 0.0},
        )
        assert verdict.status == "regression"

    def test_invalid_tolerance_order_rejected(self):
        with pytest.raises(ValueError):
            compare(bench(), None, warn_pct=30.0, fail_pct=20.0)


class TestBaselineStore:
    def test_rolling_window_keeps_last_n_and_medians(self, tmp_path):
        store = BaselineStore(tmp_path)
        for i in range(12):
            store.update(bench(samples=[float(i + 1)] * 3), window=10)
        baseline = store.load("b")
        assert baseline["runs"] == 10
        assert len(baseline["window"]) == 10
        # window holds runs 3..12 → p50 values 3..12, median of 10 entries
        assert baseline["p50"] == pytest.approx(7.5)

    def test_update_creates_the_file(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.update(bench())
        assert (tmp_path / "BASELINE_b.json").is_file()
        assert store.names() == ["b"]

    def test_load_missing_returns_none(self, tmp_path):
        assert BaselineStore(tmp_path).load("nope") is None


class TestEvaluate:
    def write_bench(self, directory, result):
        (directory / f"BENCH_{result.name}.json").write_text(
            json.dumps(result.to_dict()) + "\n"
        )

    def test_end_to_end_statuses(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.update(bench(name="fast", samples=[1.0, 1.0, 1.0]))
        store.update(bench(name="gone", samples=[1.0]))
        self.write_bench(tmp_path, bench(name="fast", samples=[3.0, 3.0, 3.0]))
        self.write_bench(tmp_path, bench(name="fresh", samples=[1.0]))
        report = evaluate(tmp_path)
        statuses = {v.name: v.status for v in report.verdicts}
        assert statuses == {
            "fast": "regression",
            "fresh": "new",
            "gone": "missing",
        }
        assert report.status == "regression"
        assert report.exit_code() == 1
        rendered = report.render()
        assert "regression" in rendered and "overall:" in rendered

    def test_exit_codes_strict_vs_lenient(self):
        report = HealthReport(verdicts=[Verdict("a", "warn")])
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1
        report = HealthReport(verdicts=[Verdict("a", "ok"), Verdict("b", "new")])
        assert report.exit_code(strict=True) == 0

    def test_unreadable_bench_files_are_invalid(self, tmp_path):
        (tmp_path / "BENCH_legacy.json").write_text(
            json.dumps({"benchmark": "legacy", "rows": []})
        )
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        self.write_bench(tmp_path, bench(name="modern"))
        results, invalid = load_bench_results(tmp_path)
        assert [r.name for r in results] == ["modern"]
        assert [(v.name, v.status) for v in invalid] == [
            ("BENCH_broken.json", "invalid"),
            ("BENCH_legacy.json", "invalid"),
        ]
        report = evaluate(tmp_path)
        assert report.status == "invalid"
        assert report.exit_code() == 1

    def test_corrupt_bench_file_fails_strict_health(self, tmp_path, capsys):
        self.write_bench(tmp_path, bench(name="modern"))
        assert cli.main(["health", "--results-dir", str(tmp_path), "--strict"]) == 0
        text = (tmp_path / "BENCH_modern.json").read_text()
        (tmp_path / "BENCH_truncated.json").write_text(text[: len(text) // 2])
        assert cli.main(["health", "--results-dir", str(tmp_path), "--strict"]) == 1
        assert "BENCH_truncated.json" in capsys.readouterr().out

    def test_missing_results_dir_is_empty(self, tmp_path):
        assert load_bench_results(tmp_path / "nope") == ([], [])
        assert evaluate(tmp_path / "nope").status == "ok"
