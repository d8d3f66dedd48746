"""Smoke test of the ladder: ``pytest benchmarks/ladder`` (not in tier-1)."""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.ladder import driver, tracing
from benchmarks.ladder.__main__ import main


def test_quick_run_emits_every_declared_metric(tmp_path):
    declared = driver.declaration()
    started = time.perf_counter()
    assert main(["run", "--quick", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - started < 60

    for workload in (w["name"] for w in declared["workloads"]):
        result = json.loads((tmp_path / f"RESULT_{workload}.json").read_text())
        assert result["correct"] and result["failed_fraction"] == 0
        for section in ("end_to_end", "per_layer"):
            assert list(result[section]) == [m["name"] for m in declared[section]]
            for metric in declared[section]:
                assert result[section][metric["name"]]["unit"] == metric["unit"]

        layers = result["per_layer"]
        spec = driver.WORKLOADS[workload]
        if spec.aggregation == "plain":
            assert layers["smpc.rounds_per_exp"]["value"] == 0
            assert layers["smpc.self_ms_per_exp"]["value"] == 0
        else:
            assert layers["smpc.rounds_per_exp"]["value"] > 0
        if spec.durable:
            assert layers["durability.restored_fraction"]["value"] == 1.0
        else:
            assert layers["durability.appends_per_exp"]["value"] == 0

        trace = json.loads((tmp_path / f"TRACE_{workload}.json").read_text())
        assert trace["experiments"]
        for experiment in trace["experiments"]:
            assert sum(experiment["shares"].values()) == pytest.approx(1.0, abs=1e-9)
    assert not list(tmp_path.glob("state-*"))


def test_wrappers_are_removed():
    originals = [
        (owner, name, getattr(owner, name))
        for owner, name, _layer, _options in tracing.targets()
    ]
    from repro.federation import serialization, worker

    with tracing.installed():
        for owner, name, original in originals:
            assert getattr(owner, name) is not original
        assert worker.table_to_payload is serialization.table_to_payload
    for owner, name, original in originals:
        assert getattr(owner, name) is original
    assert worker.table_to_payload is serialization.table_to_payload
    assert not hasattr(serialization.table_to_payload, "__wrapped__")
