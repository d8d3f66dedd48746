"""The command-line interface."""

import json

import pytest

from repro.cli import main, parse_parameter


class TestParseParameter:
    def test_json_values(self):
        assert parse_parameter("k=3") == ("k", 3)
        assert parse_parameter("e=0.5") == ("e", 0.5)
        assert parse_parameter("flag=true") == ("flag", True)

    def test_string_fallback(self):
        assert parse_parameter("mode=fast") == ("mode", "fast")

    def test_missing_equals(self):
        with pytest.raises(SystemExit):
            parse_parameter("k")


class TestCommands:
    def test_catalogue(self, capsys):
        code = main(["catalogue"])
        assert code == 0
        output = json.loads(capsys.readouterr().out)
        assert "dementia" in output
        assert "edsd" in output["dementia"]["datasets"]

    def test_algorithms(self, capsys):
        code = main(["algorithms"])
        assert code == 0
        listing = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "kmeans" for entry in listing)

    def test_run_success(self, capsys):
        code = main([
            "run", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "success"
        assert "t_statistic" in payload["result"]

    def test_run_federated_training(self, capsys):
        code = main([
            "run", "--algorithm", "federated_training", "-y", "converted_ad",
            "-x", "p_tau", "--param", "mode=sa", "--param", "rounds=2",
            "--param", "epsilon=4", "--rows", "80",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "success"
        assert payload["result"]["epsilon_spent"] == pytest.approx(4.0)
        assert [h["round"] for h in payload["result"]["history"]] == [1, 2]

    def test_run_failure_exit_code(self, capsys):
        code = main([
            "run", "--algorithm", "kmeans", "-y", "p_tau",
            "--rows", "80", "--aggregation", "plain",  # k missing
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "required" in payload["error"]

    def test_run_with_filter_and_datasets(self, capsys):
        code = main([
            "run", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--datasets", "edsd", "--filter", "agevalue > 60",
            "--rows", "150", "--aggregation", "plain",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == ["hospital_edsd"]

    def test_run_from_csv(self, capsys, tmp_path):
        lines = ["dataset,p_tau,lefthippocampus"]
        for index in range(40):
            lines.append(f"csvsite,{50 + index % 20},{2.5 + (index % 10) / 10}")
        path = tmp_path / "export.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "run", "--algorithm", "pearson_correlation",
            "-y", "p_tau", "-y", "lefthippocampus",
            "--csv", f"site_a={path}", "--aggregation", "plain",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "success"
        assert payload["result"]["n_observations"] == 40


class TestObservabilityCommands:
    def test_trace_chrome_output(self, capsys):
        code = main([
            "trace", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
        ])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert {"experiment", "flow.local_step", "transport.send"} <= names

    def test_trace_json_with_audit_to_file(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main([
            "trace", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
            "--format", "json", "--audit", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["spans"]
        events = {entry["event"] for entry in payload["audit"]}
        assert {"experiment_started", "dataset_read", "experiment_finished"} <= events

    def test_trace_failure_exit_code(self, capsys):
        code = main([
            "trace", "--algorithm", "kmeans", "-y", "p_tau",
            "--rows", "80", "--aggregation", "plain",  # k missing
        ])
        assert code == 1

    def test_trace_leaves_tracer_disabled(self):
        from repro.observability.trace import tracer

        was_enabled = tracer.enabled
        main([
            "trace", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
        ])
        assert tracer.enabled == was_enabled

    def test_metrics_prometheus_output(self, capsys):
        code = main([
            "metrics", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_transport_messages_total counter" in text
        assert "repro_audit_events_total{" in text

    def test_metrics_json_output(self, capsys):
        code = main([
            "metrics", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
            "--format", "json",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["repro_transport_messages_total"] > 0


class TestQueueCommands:
    def test_submit_no_wait(self, capsys):
        code = main([
            "submit", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
            "--no-wait",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"].startswith("exp_")
        assert payload["queue"]["submitted_total"] == 1

    def test_submit_waits_by_default(self, capsys):
        code = main([
            "submit", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "success"
        assert "t_statistic" in payload["result"]

    def test_jobs_batch(self, capsys):
        code = main([
            "jobs", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
            "--repeat", "3", "--pool", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 3
        assert all(job["state"] == "success" for job in payload["jobs"])
        assert payload["queue"]["pool_size"] == 2
        # Per-job attribution: identical requests, identical telemetry.
        messages = {entry["messages"] for entry in payload["telemetry"]}
        assert len(messages) == 1

    def test_cancel_batch(self, capsys):
        code = main([
            "cancel", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
            "--repeat", "3", "--pool", "1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cancelled"] is True
        assert payload["cancelled_job"]["status"] == "cancelled"
        states = {job["state"] for job in payload["jobs"]}
        assert "cancelled" in states


class TestTraceFilters:
    def run_tree(self, tmp_path, *extra):
        out = tmp_path / "tree.json"
        code = main([
            "trace", "--algorithm", "ttest_onesample", "-y", "p_tau",
            "--param", "mu=50", "--rows", "80", "--aggregation", "plain",
            "--format", "tree", "--out", str(out), *extra,
        ])
        assert code == 0
        return json.loads(out.read_text())["trace"]

    @staticmethod
    def walk(nodes):
        for node in nodes:
            yield node
            yield from TestTraceFilters.walk(node["children"])

    def test_min_ms_prunes_and_annotates_durations(self, tmp_path):
        unfiltered = self.run_tree(tmp_path)
        filtered = self.run_tree(tmp_path, "--min-ms", "0.01")
        assert filtered, "a real run must keep some spans above 0.01ms"
        assert len(list(self.walk(filtered))) <= len(list(self.walk(unfiltered)))
        for node in self.walk(filtered):
            assert node["duration_ms"] >= 0

    def test_absurd_min_ms_prunes_everything(self, tmp_path):
        assert self.run_tree(tmp_path, "--min-ms", "1e6") == []

    def test_top_caps_children_and_counts_dropped(self, tmp_path):
        filtered = self.run_tree(tmp_path, "--top", "1")
        for node in self.walk(filtered):
            assert len(node["children"]) <= 1
            if "children_dropped" in node:
                assert node["children_dropped"] >= 1
                assert node["dropped_ms"] >= 0


class TestProfileCommand:
    def test_experiment_profile_artifacts(self, tmp_path):
        out_dir = tmp_path / "prof"
        code = main([
            "profile", "--algorithm", "linear_regression",
            "-y", "lefthippocampus", "-x", "agevalue",
            "--rows", "1200", "--aggregation", "plain",
            "--hz", "997", "--out-dir", str(out_dir),
        ])
        assert code == 0
        collapsed = (out_dir / "flamegraph.collapsed").read_text()
        assert collapsed.strip(), "the flamegraph must not be empty"
        for line in collapsed.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
        speedscope = json.loads((out_dir / "profile.speedscope.json").read_text())
        assert speedscope["profiles"][0]["type"] == "sampled"
        path = json.loads((out_dir / "critical_path.json").read_text())
        assert path["root"] == "experiment"
        # acceptance: the chain reconciles with the root duration within 1%
        assert abs(path["reconciliation"] - 1.0) <= 0.01
        assert path["segments"]

    def test_script_profile(self, tmp_path, capsys):
        script = tmp_path / "workload.py"
        script.write_text(
            "import time\n"
            "deadline = time.perf_counter() + 0.2\n"
            "acc = 0\n"
            "while time.perf_counter() < deadline:\n"
            "    acc = (acc * 31 + 7) % 1000003\n"
        )
        out_dir = tmp_path / "prof"
        code = main([
            "profile", str(script), "--hz", "997", "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "flamegraph.collapsed").read_text().strip()

    def test_profile_without_target_errors(self):
        with pytest.raises(SystemExit):
            main(["profile"])


class TestHealthCommand:
    def write_bench(self, directory, name, scale=1.0):
        from repro.observability.slo import BenchResult

        directory.mkdir(parents=True, exist_ok=True)
        result = BenchResult.from_samples(
            name, [0.1 * scale, 0.12 * scale, 0.11 * scale], config={"n": 1}
        )
        (directory / f"BENCH_{name}.json").write_text(
            json.dumps(result.to_dict()) + "\n"
        )

    def test_update_then_ok(self, tmp_path, capsys):
        self.write_bench(tmp_path, "demo")
        assert main([
            "health", "--results-dir", str(tmp_path), "--update-baselines",
        ]) == 0
        capsys.readouterr()
        assert main(["health", "--results-dir", str(tmp_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        self.write_bench(tmp_path, "demo")
        assert main([
            "health", "--results-dir", str(tmp_path), "--update-baselines",
        ]) == 0
        self.write_bench(tmp_path, "demo", scale=2.0)  # 2x latency injection
        capsys.readouterr()
        assert main(["health", "--results-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out

    def test_strict_fails_on_missing_run(self, tmp_path, capsys):
        self.write_bench(tmp_path, "demo")
        assert main([
            "health", "--results-dir", str(tmp_path), "--update-baselines",
        ]) == 0
        (tmp_path / "BENCH_demo.json").unlink()
        assert main(["health", "--results-dir", str(tmp_path)]) == 0
        assert main(["health", "--results-dir", str(tmp_path), "--strict"]) == 1

    def test_json_format(self, tmp_path, capsys):
        self.write_bench(tmp_path, "demo")
        assert main([
            "health", "--results-dir", str(tmp_path), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benches"][0]["status"] == "new"
