"""The write-ahead journal: framing, rotation, torn-tail recovery."""

from __future__ import annotations

import os

import pytest

from repro.durability.journal import Journal, _frame, _parse_frame


def _segment(directory: str, index: int = 1) -> str:
    return os.path.join(directory, f"journal-{index:06d}.wal")


class TestFraming:
    def test_frame_round_trip(self):
        record = {"seq": 3, "kind": "submit", "job_id": "j1", "pi": 3.141592653589793}
        assert _parse_frame(_frame(record).rstrip(b"\n")) == record

    def test_flipped_bit_detected(self):
        line = _frame({"seq": 1, "kind": "x"}).rstrip(b"\n")
        corrupt = bytearray(line)
        corrupt[-1] ^= 0x01
        assert _parse_frame(bytes(corrupt)) is None

    def test_truncated_frame_detected(self):
        line = _frame({"seq": 1, "kind": "x"}).rstrip(b"\n")
        assert _parse_frame(line[: len(line) // 2]) is None

    def test_non_dict_payload_rejected(self):
        import json
        import zlib

        body = json.dumps([1, 2, 3]).encode()
        crc = zlib.crc32(body) & 0xFFFFFFFF
        assert _parse_frame(b"%08x %s" % (crc, body)) is None


class TestAppendAndReopen:
    def test_records_survive_reopen_in_order(self, tmp_path):
        journal = Journal(str(tmp_path))
        for index in range(10):
            journal.append("step", {"job_id": "j1", "index": index})
        journal.close()
        reopened = Journal(str(tmp_path))
        records = list(reopened.records())
        assert [r["index"] for r in records] == list(range(10))
        assert [r["seq"] for r in records] == list(range(1, 11))
        reopened.close()

    def test_sequence_continues_after_reopen(self, tmp_path):
        journal = Journal(str(tmp_path))
        journal.append("submit", {"job_id": "j1"})
        journal.close()
        reopened = Journal(str(tmp_path))
        assert reopened.append("terminal", {"job_id": "j1"}) == 2
        reopened.close()

    def test_fsync_batching(self, tmp_path):
        journal = Journal(str(tmp_path), fsync_every=4)
        for _ in range(8):
            journal.append("step", {})
        assert journal.stats.fsyncs_total == 2
        journal.append("terminal", {}, sync=True)
        assert journal.stats.fsyncs_total == 3
        journal.close()


class TestRotation:
    def test_segments_rotate_and_replay_across_files(self, tmp_path):
        journal = Journal(str(tmp_path), segment_max_bytes=256)
        for index in range(40):
            journal.append("step", {"index": index})
        journal.close()
        assert journal.stats.rotations_total > 0
        segments = [n for n in os.listdir(tmp_path) if n.endswith(".wal")]
        assert len(segments) > 1
        reopened = Journal(str(tmp_path), segment_max_bytes=256)
        assert [r["index"] for r in reopened.records()] == list(range(40))
        reopened.close()


class TestTornTailRecovery:
    def _write_then(self, tmp_path, extra: bytes) -> Journal:
        journal = Journal(str(tmp_path))
        for index in range(5):
            journal.append("step", {"index": index})
        journal.close()
        with open(_segment(str(tmp_path)), "ab") as handle:
            handle.write(extra)
        return Journal(str(tmp_path))

    def test_torn_tail_truncated(self, tmp_path):
        reopened = self._write_then(tmp_path, b"deadbeef {\"seq\": 6, \"kin")
        assert [r["index"] for r in reopened.records()] == list(range(5))
        assert reopened.stats.dropped_bytes > 0
        # The file itself was cut back: a further reopen drops nothing.
        reopened.close()
        clean = Journal(str(tmp_path))
        assert clean.stats.dropped_bytes == 0
        assert len(list(clean.records())) == 5
        clean.close()

    def test_corrupt_crc_mid_file_drops_suffix(self, tmp_path):
        journal = Journal(str(tmp_path))
        for index in range(6):
            journal.append("step", {"index": index})
        journal.close()
        path = _segment(str(tmp_path))
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        corrupted = bytearray(lines[2])
        corrupted[12] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:2]) + bytes(corrupted) + b"".join(lines[3:]))
        reopened = Journal(str(tmp_path))
        # Everything from the corrupt frame on is causally suspect.
        assert [r["index"] for r in reopened.records()] == [0, 1]
        assert reopened.stats.dropped_bytes > 0
        reopened.close()

    def test_corruption_drops_later_segments(self, tmp_path):
        journal = Journal(str(tmp_path), segment_max_bytes=256)
        for index in range(40):
            journal.append("step", {"index": index})
        journal.close()
        first = _segment(str(tmp_path), 1)
        with open(first, "rb") as handle:
            data = bytearray(handle.read())
        data[12] ^= 0xFF  # corrupt the first segment's first frame body
        with open(first, "wb") as handle:
            handle.write(bytes(data))
        reopened = Journal(str(tmp_path), segment_max_bytes=256)
        assert list(reopened.records()) == []
        assert reopened.stats.dropped_segments > 0
        remaining = [n for n in os.listdir(tmp_path) if n.endswith(".wal")]
        assert len(remaining) == 1
        reopened.close()

    def test_append_after_torn_recovery(self, tmp_path):
        reopened = self._write_then(tmp_path, b"garbage-without-newline")
        seq = reopened.append("submit", {"job_id": "j2"}, sync=True)
        assert seq == 6
        reopened.close()
        final = Journal(str(tmp_path))
        kinds = [r["kind"] for r in final.records()]
        assert kinds == ["step"] * 5 + ["submit"]
        final.close()


class TestRecordsAreReadFromDisk:
    def test_appends_after_reopen_are_read_too(self, tmp_path):
        journal = Journal(str(tmp_path))
        journal.append("step", {"index": 0})
        journal.close()
        reopened = Journal(str(tmp_path))
        assert reopened.stats.recovered_records == 1
        reopened.append("step", {"index": 1}, sync=True)
        assert [r["index"] for r in reopened.records()] == [0, 1]
        assert [r["seq"] for r in reopened.records()] == [1, 2]
        reopened.close()

    def test_frame_with_good_crc_that_does_not_decode_is_an_error(self, tmp_path):
        import zlib

        from repro.errors import JournalCorruptionError

        journal = Journal(str(tmp_path))
        journal.append("step", {"index": 0})
        journal.close()
        body = b'{"seq": 2, "kind": '  # not what a torn write leaves: the CRC matches
        with open(_segment(str(tmp_path)), "ab") as handle:
            handle.write(b"%08x %s\n" % (zlib.crc32(body) & 0xFFFFFFFF, body))
        reopened = Journal(str(tmp_path))
        assert reopened.stats.dropped_bytes == 0
        with pytest.raises(JournalCorruptionError):
            list(reopened.records())
        reopened.close()


@pytest.mark.parametrize("payload", [{}, {"nested": {"a": [1, 2.5, None, "x"]}}])
def test_payload_shapes(tmp_path, payload):
    journal = Journal(str(tmp_path))
    journal.append("step", payload)
    journal.close()
    reopened = Journal(str(tmp_path))
    (record,) = list(reopened.records())
    for key, value in payload.items():
        assert record[key] == value
    reopened.close()
