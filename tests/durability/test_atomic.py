"""Atomic checksummed JSON: round trips, corruption, quarantine."""

import json

import pytest

from repro.durability.atomic import (
    CHECKSUM_ALGORITHM,
    atomic_write_text,
    canonical_json,
    canonical_key,
    quarantine_file,
    read_checksummed_json,
    write_checksummed_json,
)


class TestCanonical:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_key_is_deterministic(self):
        payload = {"x": [1, 2, 3], "y": {"nested": True}}
        assert canonical_key(payload) == canonical_key(dict(payload))

    def test_canonical_key_differs_on_content(self):
        assert canonical_key({"a": 1}) != canonical_key({"a": 2})


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "deep")
        assert path.read_text() == "deep"


class TestChecksummedJson:
    def test_document_is_the_canonical_json_of_the_envelope(self, tmp_path):
        payload = {"b": [1, 2.5, None, "é"], "a": {"z": True, "y": "x"}}
        path = write_checksummed_json(tmp_path / "doc.json", payload)
        envelope = {
            "algorithm": CHECKSUM_ALGORITHM,
            "checksum": canonical_key(payload),
            "payload": payload,
        }
        assert path.read_text(encoding="utf-8") == (
            canonical_json(envelope) + "\n"
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "doc.json"
        payload = {"version": 1, "items": [1, "two", None]}
        write_checksummed_json(path, payload)
        assert read_checksummed_json(path) == payload

    def test_equal_payloads_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_checksummed_json(a, {"k": [1, 2], "j": "x"})
        write_checksummed_json(b, {"j": "x", "k": [1, 2]})
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_is_none(self, tmp_path):
        assert read_checksummed_json(tmp_path / "absent.json") is None

    def test_corrupt_file_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("{ not json")
        assert read_checksummed_json(path) is None
        assert not path.exists()
        assert (tmp_path / "doc.json.corrupt").exists()

    def test_checksum_mismatch_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        write_checksummed_json(path, {"v": 1})
        document = json.loads(path.read_text())
        document["payload"]["v"] = 2  # bit-rot the payload, keep checksum
        path.write_text(json.dumps(document))
        assert read_checksummed_json(path) is None
        assert (tmp_path / "doc.json.corrupt").exists()

    def test_plain_json_without_envelope_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"just": "data"}')
        assert read_checksummed_json(path) is None
        assert (tmp_path / "doc.json.corrupt").exists()

    def test_quarantine_disabled_leaves_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("garbage")
        assert read_checksummed_json(path, quarantine=False) is None
        assert path.exists()


class TestQuarantine:
    def test_moves_aside(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("x")
        target = quarantine_file(path)
        assert target == tmp_path / "bad.json.corrupt"
        assert not path.exists()

    def test_suffix_increments_on_collision(self, tmp_path):
        for _ in range(3):
            path = tmp_path / "bad.json"
            path.write_text("x")
            quarantine_file(path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "bad.json.corrupt",
            "bad.json.corrupt-1",
            "bad.json.corrupt-2",
        ]

    def test_quarantined_files_escape_json_globs(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("x")
        quarantine_file(path)
        assert list(tmp_path.glob("*.json")) == []

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine_file(tmp_path / "absent.json") is None
