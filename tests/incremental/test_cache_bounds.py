"""Bounded attempt-cache growth: the LRU cap and liveness compaction.

A resident service replays an unbounded delta stream through one
:class:`AttemptCache`; these tests pin the two mechanisms that keep it
finite — and that neither can change a merge outcome, only re-scoring work.
"""

import random

from repro.harness.experiments import merge_report_digest, search_workload
from repro.harness.pipeline import run_pipeline, run_pipeline_incremental
from repro.incremental.cache import AttemptCache, AttemptOutcome
from repro.ir.printer import print_module
from repro.ir.parser import parse_module
from repro.workloads.mutate import mutate_constant


class _Decision:
    profitable = False
    original_size = 10
    merged_size = 12
    overhead = 2


class _Stats:
    matched_instructions = 3
    alignment_dp_cells = 9
    alignment_seconds = 0.0
    codegen_seconds = 0.0


def _fill(cache, count, prefix="d"):
    for index in range(count):
        cache.record((f"{prefix}{index}", f"{prefix}{index}x"),
                     _Decision(), _Stats())


class TestLRUCap:
    def test_unbounded_by_default(self):
        cache = AttemptCache()
        _fill(cache, 100)
        assert len(cache.entries) == 100
        assert cache.evicted == 0

    def test_cap_evicts_oldest_and_counts(self):
        cache = AttemptCache(max_entries=10)
        _fill(cache, 25)
        assert len(cache.entries) == 10
        assert cache.evicted == 15
        # The survivors are the newest insertions.
        assert ("d24", "d24x") in cache.entries
        assert ("d0", "d0x") not in cache.entries

    def test_lookup_refreshes_recency(self):
        cache = AttemptCache(max_entries=3)
        _fill(cache, 3)
        assert cache.lookup(("d0", "d0x")) is not None  # touch the oldest
        cache.record(("fresh", "freshx"), _Decision(), _Stats())
        # d1 (now the least recently used) was evicted, the touched d0 kept.
        assert ("d0", "d0x") in cache.entries
        assert ("d1", "d1x") not in cache.entries
        assert cache.evicted == 1

    def test_cap_can_be_applied_late(self):
        cache = AttemptCache()
        _fill(cache, 20)
        cache.max_entries = 5
        cache.record(("late", "latex"), _Decision(), _Stats())
        assert len(cache.entries) == 5
        assert cache.evicted == 16


class TestCompact:
    def test_drops_dead_pairs_and_artifacts(self):
        cache = AttemptCache()
        _fill(cache, 4, prefix="live")
        _fill(cache, 3, prefix="dead")
        cache.index_artifacts["liveart"] = object()
        cache.index_artifacts["deadart"] = object()
        live = {f"live{i}" for i in range(4)} \
            | {f"live{i}x" for i in range(4)} | {"liveart"}
        dropped = cache.compact(live)
        assert dropped == 4  # 3 dead pairs + 1 dead artifact
        assert cache.evicted == 4
        assert len(cache.entries) == 4
        assert set(cache.index_artifacts) == {"liveart"}

    def test_liveness_chases_merge_chains(self):
        cache = AttemptCache()
        # a+b -> m1 (committed), m1+c -> m2 (committed): both merged
        # digests are reachable from {a, b, c} and must survive.
        first = AttemptOutcome(merged_text="t", named_key="k",
                               merged_digest="m1")
        second = AttemptOutcome(merged_text="t", named_key="k",
                                merged_digest="m2")
        cache.entries[("a", "b")] = first
        cache.entries[("m1", "c")] = second
        cache.entries[("m2", "gone")] = AttemptOutcome()
        cache.index_artifacts["m1"] = object()
        cache.index_artifacts["m2"] = object()
        dropped = cache.compact({"a", "b", "c"})
        assert set(cache.entries) == {("a", "b"), ("m1", "c")}
        assert set(cache.index_artifacts) == {"m1", "m2"}
        assert dropped == 1  # only the pair touching the vanished digest

    def test_compact_never_changes_replayed_reports(self):
        module = search_workload(24, seed=13)
        run = run_pipeline_incremental(parse_module(print_module(module)),
                                       benchmark="compactpar")
        rng = random.Random(3)
        for _ in range(3):
            victims = [f for f in module.functions
                       if not f.is_declaration()]
            mutate_constant(rng.choice(victims), rng)
            run = run_pipeline_incremental(
                parse_module(print_module(module)), run.state,
                benchmark="compactpar")
        dropped = run.state.compact_cache()
        after = run_pipeline_incremental(parse_module(print_module(module)),
                                         run.state, benchmark="compactpar")
        cold = run_pipeline(parse_module(print_module(module)), "compactpar")
        assert merge_report_digest(after.report) \
            == merge_report_digest(cold.report)
        assert dropped >= 0


class TestPipelineWiring:
    def test_cache_evicted_lands_in_stats(self):
        module = search_workload(16, seed=21)
        run = run_pipeline_incremental(parse_module(print_module(module)),
                                       benchmark="capstats")
        assert run.stats.cache_evicted == 0
        run.state.cache.max_entries = 4
        rng = random.Random(8)
        victims = [f for f in module.functions if not f.is_declaration()]
        mutate_constant(rng.choice(victims), rng)
        capped = run_pipeline_incremental(
            parse_module(print_module(module)), run.state,
            benchmark="capstats")
        assert capped.stats.cache_evicted > 0
        assert capped.stats.cache_evicted \
            == capped.stats.as_dict()["cache_evicted"]

    def test_evictions_surface_as_metric(self):
        from repro.obs import MetricsRegistry
        module = search_workload(16, seed=22)
        registry = MetricsRegistry()
        run = run_pipeline_incremental(parse_module(print_module(module)),
                                       benchmark="capmetric",
                                       metrics=registry)
        run.state.cache.max_entries = 4
        rng = random.Random(9)
        victims = [f for f in module.functions if not f.is_declaration()]
        mutate_constant(rng.choice(victims), rng)
        run_pipeline_incremental(parse_module(print_module(module)),
                                 run.state, benchmark="capmetric",
                                 metrics=registry)
        text = registry.to_prometheus()
        assert "repro_incremental_cache_evicted_total" in text

    def test_capped_replay_stays_bit_identical(self):
        module = search_workload(20, seed=23)
        run = run_pipeline_incremental(parse_module(print_module(module)),
                                       benchmark="cappar")
        run.state.cache.max_entries = 2  # pathologically tight
        rng = random.Random(4)
        for _ in range(2):
            victims = [f for f in module.functions
                       if not f.is_declaration()]
            mutate_constant(rng.choice(victims), rng)
            run = run_pipeline_incremental(
                parse_module(print_module(module)), run.state,
                benchmark="cappar")
        cold = run_pipeline(parse_module(print_module(module)), "cappar")
        assert merge_report_digest(run.report) \
            == merge_report_digest(cold.report)
