"""Tests for :meth:`ArtifactStore.compact` garbage collection (PR 4 satellite)."""

import threading

from repro.persist import ArtifactStore


def _populate(store, kind, digests):
    for digest in digests:
        assert store.store(kind, digest, {"value": digest})


class TestCompact:
    def test_drops_only_dead_digests(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _populate(store, "analysis.fingerprint", ["aa11", "bb22", "cc33"])
        evicted = store.compact({"aa11", "cc33"})
        assert evicted == 1
        assert store.stats.evicted == 1
        assert store.load("analysis.fingerprint", "aa11") == {"value": "aa11"}
        assert store.load("analysis.fingerprint", "cc33") == {"value": "cc33"}
        assert store.load("analysis.fingerprint", "bb22") is None

    def test_composite_keys_match_on_their_digest_prefix(self, tmp_path):
        """MinHash signatures are keyed ``<digest>.<config>``: one live set
        covers every config variant derived from the same content."""
        store = ArtifactStore(tmp_path)
        _populate(store, "minhash_signature",
                  ["aa11.cfg1", "aa11.cfg2", "bb22.cfg1"])
        evicted = store.compact({"aa11"})
        assert evicted == 1
        assert store.load("minhash_signature", "aa11.cfg1") is not None
        assert store.load("minhash_signature", "aa11.cfg2") is not None
        assert store.load("minhash_signature", "bb22.cfg1") is None

    def test_kinds_filter_restricts_collection(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _populate(store, "analysis.fingerprint", ["aa11"])
        _populate(store, "minhash_signature", ["aa11.cfg"])
        evicted = store.compact(set(), kinds=["minhash_signature"])
        assert evicted == 1
        assert store.load("analysis.fingerprint", "aa11") is not None
        assert store.load("minhash_signature", "aa11.cfg") is None

    def test_empty_live_set_clears_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = [f"d{i:02d}" for i in range(20)]
        _populate(store, "analysis.fingerprint", digests)
        assert store.compact(set()) == 20
        for digest in digests:
            assert store.load("analysis.fingerprint", digest) is None

    def test_compacting_an_empty_or_missing_store_is_a_noop(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-written")
        assert store.compact({"aa11"}) == 0
        assert store.stats.evicted == 0

    def test_evicted_records_can_be_republished(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _populate(store, "analysis.fingerprint", ["aa11"])
        store.compact(set())
        assert store.store("analysis.fingerprint", "aa11", {"value": "again"})
        assert store.load("analysis.fingerprint", "aa11") == {"value": "again"}


class TestConcurrentReaderSafety:
    def test_readers_racing_a_compaction_see_misses_never_errors(self, tmp_path):
        """The robustness contract under concurrent GC: a reader hitting a
        record mid-deletion gets a miss (None) — never an exception — and
        records the compactor kept keep loading."""
        store = ArtifactStore(tmp_path)
        live = [f"live{i:02d}" for i in range(10)]
        dead = [f"dead{i:02d}" for i in range(50)]
        _populate(store, "analysis.fingerprint", live + dead)

        reader = ArtifactStore(tmp_path)
        failures = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                for digest in live + dead:
                    try:
                        payload = reader.load("analysis.fingerprint", digest)
                    except Exception as error:  # noqa: BLE001 - the assertion
                        failures.append(error)
                        return
                    if digest in live and payload is None:
                        failures.append(f"lost live record {digest}")
                        return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            evicted = store.compact(set(live))
        finally:
            stop.set()
            thread.join()
        assert not failures, failures
        assert evicted == len(dead)
        for digest in live:
            assert store.load("analysis.fingerprint", digest) is not None
        for digest in dead:
            assert store.load("analysis.fingerprint", digest) is None
