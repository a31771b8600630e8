"""Tests for the content-addressed artifact store (``repro.persist.store``).

Covers the robustness contract the subsystem is built on: round-trips,
schema-version mismatches, truncated/corrupt/mis-filed records (all misses,
never errors), concurrent-writer last-wins safety and write-failure
degradation.
"""

import json

import pytest

from repro.persist import SCHEMA_VERSION, ArtifactStore, StoreStats


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path)


class TestRoundTrip:
    def test_store_then_load(self, store):
        payload = {"counts": [1, 2, 3], "size": 6}
        assert store.store("analysis.fingerprint", "abc123", payload)
        assert store.load("analysis.fingerprint", "abc123") == payload
        assert store.stats.hits == 1
        assert store.stats.stores == 1
        assert store.stats.misses == 0

    def test_missing_record_is_a_miss(self, store):
        assert store.load("analysis.fingerprint", "nothere") is None
        assert store.stats.misses == 1
        assert store.stats.corrupt_records == 0

    def test_kinds_are_namespaced(self, store):
        store.store("kind_a", "d1", "a-payload")
        store.store("kind_b", "d1", "b-payload")
        assert store.load("kind_a", "d1") == "a-payload"
        assert store.load("kind_b", "d1") == "b-payload"

    def test_overwrite_is_last_wins(self, store):
        store.store("k", "d", "first")
        store.store("k", "d", "second")
        assert store.load("k", "d") == "second"

    def test_payload_types_survive_json(self, store):
        for payload in (17, [1, 2, 3], {"nested": {"list": [True, None]}}, "text"):
            store.store("k", f"d{id(payload)}", payload)
            assert store.load("k", f"d{id(payload)}") == payload


class TestSchemaVersioning:
    def test_schema_mismatch_is_a_miss_not_an_error(self, tmp_path):
        writer = ArtifactStore(tmp_path, schema_version=1)
        writer.store("k", "d", "payload")
        reader = ArtifactStore(tmp_path, schema_version=2)
        assert reader.load("k", "d") is None
        assert reader.stats.schema_mismatches == 1
        assert reader.stats.misses == 1
        assert reader.stats.corrupt_records == 0

    def test_newer_writer_invisible_to_older_reader(self, tmp_path):
        ArtifactStore(tmp_path, schema_version=9).store("k", "d", "future")
        reader = ArtifactStore(tmp_path, schema_version=SCHEMA_VERSION)
        assert reader.load("k", "d") is None
        # A fresh store at the reader's schema recovers the key.
        reader.store("k", "d", "present")
        assert reader.load("k", "d") == "present"


class TestCorruptionTolerance:
    def _record_path(self, store):
        store.store("k", "deadbeef", {"x": 1})
        return store.path_for("k", "deadbeef")

    def test_truncated_record_is_a_miss(self, store):
        path = self._record_path(store)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert store.load("k", "deadbeef") is None
        assert store.stats.corrupt_records == 1
        # A rewrite recovers the key.
        store.store("k", "deadbeef", {"x": 2})
        assert store.load("k", "deadbeef") == {"x": 2}

    def test_garbage_record_is_a_miss(self, store):
        path = self._record_path(store)
        path.write_bytes(b"\x00\xff not json at all")
        assert store.load("k", "deadbeef") is None
        assert store.stats.corrupt_records == 1

    def test_wrong_envelope_shape_is_a_miss(self, store):
        path = self._record_path(store)
        path.write_text(json.dumps([1, 2, 3]))
        assert store.load("k", "deadbeef") is None
        assert store.stats.corrupt_records == 1

    def test_missing_payload_key_is_a_miss(self, store):
        path = self._record_path(store)
        path.write_text(json.dumps({"schema": SCHEMA_VERSION, "kind": "k",
                                    "digest": "deadbeef"}))
        assert store.load("k", "deadbeef") is None
        assert store.stats.corrupt_records == 1

    def test_misfiled_record_is_a_miss(self, store):
        # A record whose logical kind/digest disagree with its location —
        # e.g. after a sanitization collision or a manual copy — is rejected.
        path = self._record_path(store)
        record = json.loads(path.read_text())
        record["digest"] = "someoneelse"
        path.write_text(json.dumps(record))
        assert store.load("k", "deadbeef") is None
        assert store.stats.corrupt_records == 1

    def test_note_invalid_payload_reclassifies_hit(self, store):
        store.store("k", "d", "shaped-wrong-for-consumer")
        assert store.load("k", "d") == "shaped-wrong-for-consumer"
        assert store.stats.hits == 1
        store.note_invalid_payload()
        assert store.stats.hits == 0
        assert store.stats.misses == 1
        assert store.stats.corrupt_records == 1


class TestConcurrency:
    def test_two_writers_last_wins(self, tmp_path):
        first = ArtifactStore(tmp_path)
        second = ArtifactStore(tmp_path)
        first.store("k", "d", "from-first")
        second.store("k", "d", "from-second")
        assert ArtifactStore(tmp_path).load("k", "d") == "from-second"

    def test_crashed_writer_tmp_file_is_harmless(self, store):
        store.store("k", "d", "good")
        path = store.path_for("k", "d")
        # Simulate another writer dying mid-write: a stale temp file next to
        # the record must affect neither loads nor subsequent stores.
        (path.parent / f".{path.name}.99999.1.tmp").write_text("{half a rec")
        assert store.load("k", "d") == "good"
        assert store.store("k", "d", "newer")
        assert store.load("k", "d") == "newer"

    def test_tmp_names_are_per_process_and_sequence(self, store):
        path_a = store.path_for("k", "d1")
        store.store("k", "d1", 1)
        store.store("k", "d2", 2)
        # No temp droppings left behind after successful publishes.
        leftovers = [p for p in path_a.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestWriteFailure:
    def test_unwritable_layout_degrades_to_cold(self, tmp_path):
        # A plain file squatting on the objects/ directory makes every mkdir
        # fail; the store must degrade to a cold cache, not raise.  (A plain
        # chmod-based fixture would not fail for root, so this test uses a
        # layout conflict that fails for every uid.)
        root = tmp_path / "store"
        root.mkdir()
        (root / "objects").write_text("squatter")
        store = ArtifactStore(root)
        assert store.store("k", "d", "payload") is False
        assert store.stats.write_errors == 1
        assert store.load("k", "d") is None  # still just a miss
        assert store.stats.misses == 1


class TestStats:
    def test_as_dict_and_hit_rate(self):
        stats = StoreStats(hits=3, misses=1)
        summary = stats.as_dict()
        assert summary["hit_rate"] == pytest.approx(0.75)
        assert summary["loads"] == 4
        assert StoreStats().hit_rate == 0.0
