"""Atomic, schema-versioned checkpoint storage."""

from __future__ import annotations

import json
import os

from repro.durability.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    ExperimentCheckpoint,
    request_fingerprint,
)


def _checkpoint(job_id="exp_1", value=4.5):
    return ExperimentCheckpoint(
        job_id=job_id,
        fingerprint="abc123",
        reads=[{"index": 0, "key": "LocalStepNode:n1", "value": {"sum": value}}],
    )


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint())
        loaded = store.load("exp_1")
        assert loaded is not None
        assert loaded.job_id == "exp_1"
        assert loaded.fingerprint == "abc123"
        assert loaded.reads == [
            {"index": 0, "key": "LocalStepNode:n1", "value": {"sum": 4.5}}
        ]
        assert loaded.schema == CHECKPOINT_SCHEMA_VERSION

    def test_missing_returns_none_without_failure_count(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.load("nope") is None
        assert store.stats.load_failures_total == 0

    def test_corrupt_json_returns_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint())
        path = os.path.join(str(tmp_path), "exp_1.ckpt.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.load("exp_1") is None
        assert store.stats.load_failures_total == 1

    def test_schema_mismatch_returns_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint())
        path = os.path.join(str(tmp_path), "exp_1.ckpt.json")
        payload = json.load(open(path))
        payload["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        json.dump(payload, open(path, "w"))
        assert store.load("exp_1") is None
        assert store.stats.load_failures_total == 1

    def test_save_overwrites_atomically(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint(value=1.0))
        store.save(_checkpoint(value=7.0))
        assert store.load("exp_1").reads[0]["value"] == {"sum": 7.0}
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))

    def test_delete(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint())
        assert store.delete("exp_1") is True
        assert store.load("exp_1") is None
        assert store.delete("exp_1") is False

    def test_hostile_job_id_stays_inside_directory(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint(job_id="../../evil"))
        assert store.list_ids() == [".._.._evil"]
        assert store.load("../../evil") is not None

    def test_list_ids_sorted(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for job_id in ("b", "a", "c"):
            store.save(_checkpoint(job_id=job_id))
        assert store.list_ids() == ["a", "b", "c"]


class TestFingerprint:
    def test_fingerprint_is_order_insensitive(self):
        assert request_fingerprint({"a": 1, "b": 2}) == request_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_fingerprint_distinguishes_values(self):
        assert request_fingerprint({"a": 1}) != request_fingerprint({"a": 2})
