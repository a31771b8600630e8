"""Tests for ``PipelineState``: snapshots, config keys, clone clusters."""

import random

import pytest

from repro.harness import run_pipeline_incremental
from repro.harness.experiments import merge_report_digest, search_workload
from repro.incremental import (
    IncrementalConfig,
    STATE_SCHEMA,
    copy_module,
    load_state,
    save_state,
)
from repro.ir.parser import parse_named_function
from repro.ir.printer import print_function
from repro.persist.store import ArtifactStore
from repro.workloads import random_delta


def _delta_stream(module, steps, seed=11, **kwargs):
    """Bootstrap + ``steps`` random deltas; returns the last run."""
    rng = random.Random(seed)
    run = run_pipeline_incremental(module, benchmark="state", **kwargs)
    for _ in range(steps):
        random_delta(module, rng, edits=2)
        run = run_pipeline_incremental(module, run.state, **kwargs)
    return run


class TestConfigKey:
    def test_outcome_relevant_knobs_change_the_key(self):
        base = IncrementalConfig()
        assert base.key() == IncrementalConfig().key()
        assert base.key() != IncrementalConfig(technique="fmsa").key()
        assert base.key() != IncrementalConfig(threshold=5).key()
        assert base.key() != IncrementalConfig(target="arm_thumb").key()
        assert base.key() != IncrementalConfig(phi_coalescing=False).key()
        assert base.key() != IncrementalConfig(min_function_size=5).key()

    def test_benchmark_name_is_not_part_of_the_key(self):
        assert IncrementalConfig(benchmark="a").key() == \
            IncrementalConfig(benchmark="b").key()

    def test_state_rejects_a_mismatched_config(self):
        module = search_workload(10)
        run = run_pipeline_incremental(module, benchmark="state")
        with pytest.raises(ValueError):
            run_pipeline_incremental(module, run.state, technique="fmsa")


class TestSnapshotRoundTrip:
    def test_loaded_state_matches_the_saved_one(self, tmp_path):
        module = search_workload(12)
        run = _delta_stream(module, 3, cache_dir=str(tmp_path))
        state = run.state
        loaded = load_state(ArtifactStore(tmp_path), state.config)
        assert loaded is not None
        assert loaded.deltas_applied == state.deltas_applied
        assert set(loaded.functions) == set(state.functions)
        for name, function in state.functions.items():
            twin = loaded.functions[name]
            # Bit-exact round trip: same content *and* the same value names
            # (SalSSA phi coalescing tie-breaks on names, so anything less
            # would silently fork future merge outcomes).
            assert twin.content_digest() == function.content_digest()
            assert print_function(twin) == print_function(function)
        assert loaded.source_digests == state.source_digests
        assert set(loaded.cache.entries) == set(state.cache.entries)

    def test_warm_restarted_stream_stays_bit_identical(self, tmp_path):
        from repro.harness import run_pipeline

        module = search_workload(12)
        run = _delta_stream(module, 2, cache_dir=str(tmp_path))
        # A "process restart": no in-memory state handed over, only the dir.
        random_delta(module, random.Random(99), edits=2)
        resumed = run_pipeline_incremental(module, benchmark="state",
                                           cache_dir=str(tmp_path))
        assert resumed.state is not run.state
        assert resumed.stats.pairs_reused > 0
        cold = run_pipeline(copy_module(module), "state")
        assert merge_report_digest(resumed.report) == \
            merge_report_digest(cold.report)

    def test_schema_drift_reads_as_a_cold_bootstrap(self, tmp_path):
        module = search_workload(10)
        run = _delta_stream(module, 1, cache_dir=str(tmp_path))
        store = ArtifactStore(tmp_path)
        config = run.state.config
        payload = run.state.snapshot_payload()
        payload["schema"] = STATE_SCHEMA + 1
        from repro.incremental import STATE_KIND
        store.store(STATE_KIND, run.state.snapshot_digest(), payload)
        assert load_state(store, config) is None

    def test_missing_snapshot_is_a_miss(self, tmp_path):
        assert load_state(ArtifactStore(tmp_path), IncrementalConfig()) is None


class TestNamedTextRoundTrip:
    def test_every_pristine_function_round_trips_by_name(self):
        module = search_workload(14)
        run = _delta_stream(module, 2)
        for name, function in run.state.functions.items():
            text = print_function(function)
            twin = parse_named_function(text)
            assert twin.name == name
            assert twin.content_digest() == function.content_digest()
            assert print_function(twin) == text


class TestCloneClusters:
    def test_clusters_cover_committed_merges(self):
        module = search_workload(16)
        run = _delta_stream(module, 1)
        clusters = run.state.clone_clusters()
        committed = [r for r in run.report.records if r.committed]
        assert committed, "workload produced no merges — bad setup"
        by_member = {name: cluster for cluster in clusters
                     for name in cluster}
        for record in committed:
            assert by_member[record.first] is by_member[record.second]
            assert by_member[record.merged] is by_member[record.first]

    def test_no_report_means_no_clusters(self):
        from repro.incremental import PipelineState
        assert PipelineState(IncrementalConfig()).clone_clusters() == []
