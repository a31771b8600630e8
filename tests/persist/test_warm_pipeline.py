"""End-to-end persistence tests: warm pipeline runs over a shared store.

The acceptance contract of ``repro.persist``: a warm run against a populated
``cache_dir`` produces a bit-identical merge report while loading (not
recomputing) fingerprints and function sizes; a run with no ``cache_dir``
behaves exactly as without the subsystem; and any store defect —
corruption, schema bumps — silently degrades to a cold rebuild.
"""

import json

import pytest

from repro.analysis.counters import track_constructions
from repro.analysis.manager import FINGERPRINT, ModuleAnalysisManager
from repro.harness.experiments import merge_report_digest, search_workload
from repro.harness.pipeline import run_pipeline
from repro.persist import ArtifactStore, PersistentAnalysisCache

WORKLOAD_SIZE = 48


def _run(cache_dir=None, seed=3):
    module = search_workload(WORKLOAD_SIZE, seed=seed)
    return run_pipeline(module, "persist-test", technique="salssa", threshold=1,
                        target="arm_thumb", cache_dir=cache_dir)


def _store_files(cache_dir):
    return [path for path in cache_dir.rglob("*.json") if path.is_file()]


class TestWarmParity:
    def test_warm_run_is_bit_identical_and_loads_instead_of_computing(self, tmp_path):
        with track_constructions() as cold_tracker:
            cold = _run(str(tmp_path))
        cold_fingerprints = cold_tracker.delta("Fingerprint")
        assert cold_fingerprints > 0
        assert cold.persist_stats is not None and cold.persist_stats.stores > 0

        with track_constructions() as warm_tracker:
            warm = _run(str(tmp_path))
        assert merge_report_digest(cold.report) == merge_report_digest(warm.report)
        assert warm_tracker.delta("Fingerprint") <= 0.2 * cold_fingerprints
        assert warm.persist_stats is not None
        assert warm.persist_stats.hits > 0
        assert warm.persist_stats.hit_rate > 0.8

    def test_no_cache_dir_is_unchanged_pr2_behaviour(self, tmp_path):
        uncached = _run(cache_dir=None)
        cached = _run(str(tmp_path))
        assert uncached.persist_stats is None
        assert merge_report_digest(uncached.report) == \
            merge_report_digest(cached.report)

    def test_exhaustive_strategy_also_persists_fingerprints(self, tmp_path):
        # The index's exhaustive walk fingerprints every function, merged
        # bodies included; warm, each one comes from the store.
        with track_constructions() as cold_tracker:
            cold = _run(str(tmp_path), seed=5)
        with track_constructions() as warm_tracker:
            warm = _run(str(tmp_path), seed=5)
        assert merge_report_digest(cold.report) == merge_report_digest(warm.report)
        assert cold_tracker.delta("Fingerprint") > 0
        assert warm_tracker.delta("Fingerprint") == 0


class TestStoreDefectsAreColdRebuilds:
    def test_corrupted_store_still_produces_correct_reports(self, tmp_path):
        cold = _run(str(tmp_path))
        files = _store_files(tmp_path)
        assert files
        for index, path in enumerate(files):
            if index % 2 == 0:
                path.write_bytes(b"\x00garbage")  # corrupt half the records...
            else:
                path.write_text(path.read_text()[:10])  # ...truncate the rest
        warm = _run(str(tmp_path))
        assert merge_report_digest(cold.report) == merge_report_digest(warm.report)
        assert warm.persist_stats.corrupt_records > 0

    def test_schema_bump_forces_cold_rebuild(self, tmp_path):
        cold = _run(str(tmp_path))
        for path in _store_files(tmp_path):
            record = json.loads(path.read_text())
            record["schema"] = 9999
            path.write_text(json.dumps(record))
        with track_constructions() as tracker:
            warm = _run(str(tmp_path))
        assert merge_report_digest(cold.report) == merge_report_digest(warm.report)
        assert warm.persist_stats.schema_mismatches > 0
        # Everything recomputed: genuinely cold.
        assert tracker.delta("Fingerprint") > 0

    def test_semantically_invalid_payload_is_recomputed(self, tmp_path):
        module = search_workload(WORKLOAD_SIZE, seed=3)
        function = next(f for f in module.defined_functions()
                        if f.num_instructions() >= 3)
        store = ArtifactStore(tmp_path)
        # A structurally valid record whose payload decodes into nonsense.
        store.store("analysis.fingerprint", function.content_digest(),
                    {"counts": "not-a-list", "size": -1})
        manager = ModuleAnalysisManager(
            module, persistent=PersistentAnalysisCache(store))
        fingerprint = manager.fingerprint(function)
        from repro.analysis.fingerprint import Fingerprint
        assert fingerprint == Fingerprint.of(function)
        assert store.stats.corrupt_records == 1


class TestPersistentAnalysisCache:
    def test_fingerprint_round_trip_through_manager(self, tmp_path):
        module = search_workload(WORKLOAD_SIZE, seed=5)
        function = next(f for f in module.defined_functions())
        store = ArtifactStore(tmp_path)
        writer = ModuleAnalysisManager(
            module, persistent=PersistentAnalysisCache(store))
        original = writer.fingerprint(function)
        assert store.stats.stores >= 1

        fresh_store = ArtifactStore(tmp_path)
        reader = ModuleAnalysisManager(
            module, persistent=PersistentAnalysisCache(fresh_store))
        loaded = reader.fingerprint(function)
        assert loaded == original
        assert fresh_store.stats.hits == 1
        assert reader.stats.misses == 0  # served from disk, not recomputed

    def test_object_graph_analyses_never_touch_the_store(self, tmp_path):
        module = search_workload(WORKLOAD_SIZE, seed=5)
        function = next(f for f in module.defined_functions())
        store = ArtifactStore(tmp_path)
        manager = ModuleAnalysisManager(
            module, persistent=PersistentAnalysisCache(store))
        manager.domtree(function)
        manager.liveness(function)
        manager.block_plans(function)
        assert store.stats.loads == 0
        assert store.stats.stores == 0

    def test_function_size_round_trip(self, tmp_path):
        from repro.analysis.size_model import get_target
        module = search_workload(WORKLOAD_SIZE, seed=5)
        function = next(f for f in module.defined_functions())
        size_model = get_target("arm_thumb")
        store = ArtifactStore(tmp_path)
        writer = ModuleAnalysisManager(
            module, persistent=PersistentAnalysisCache(store))
        size = writer.function_size(function, size_model)
        reader = ModuleAnalysisManager(
            module, persistent=PersistentAnalysisCache(ArtifactStore(tmp_path)))
        assert reader.function_size(function, size_model) == size
        assert reader.stats.misses == 0

    def test_cache_is_invisible_when_digest_changes(self, tmp_path):
        module = search_workload(WORKLOAD_SIZE, seed=5)
        function = next(f for f in module.defined_functions()
                        if f.num_instructions() >= 6)
        store = ArtifactStore(tmp_path)
        manager = ModuleAnalysisManager(
            module, persistent=PersistentAnalysisCache(store))
        manager.fingerprint(function)
        # Mutate: the next query must key on the new digest and miss.
        from repro.ir import Constant, I32, IRBuilder
        block = function.blocks[-1]
        builder = IRBuilder(block)
        builder.position_before(block.terminator)
        value = next(a for a in function.args if a.type == I32)
        builder.binary("add", value, Constant(I32, 9))
        from repro.analysis.fingerprint import Fingerprint
        assert manager.fingerprint(function) == Fingerprint.of(function)
        assert store.stats.misses >= 1
