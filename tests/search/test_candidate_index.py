"""Tests for the candidate-search subsystem (``repro.search``).

Covers: exact parity of the exhaustive index with the legacy ranking, recall
floors of the sub-linear strategies against the exhaustive reference,
incremental remove/update maintenance, the strategy registry, and the
``search_strategy`` option end-to-end through the merge pass and pipeline.
"""

import pytest

from repro.analysis.fingerprint import Fingerprint, opcode_shingles
from repro.harness.experiments import search_workload
from repro.harness.metrics import combine_search_stats
from repro.harness.pipeline import run_pipeline
from repro.ir.verifier import verify_module
from repro.merge.pass_manager import FunctionMergingPass, MergePassOptions
from repro.search import (
    ExhaustiveIndex,
    MinHashLSHIndex,
    SearchStats,
    SearchStrategy,
    SizeBucketIndex,
    available_strategies,
    make_index,
    resolve_strategy,
    topk_recall,
)
from repro.search.stats import quality_recall
from repro.transforms.simplify import simplify_module
from repro.workloads.generator import generate_program, simple_spec
from repro.workloads.mibench_like import MIBENCH

from .reference import CandidateRanking


@pytest.fixture(scope="module")
def workload():
    """A mibench-like module large enough for sub-linear search to matter."""
    return search_workload(256, seed=7)


@pytest.fixture(scope="module")
def small_module():
    spec = simple_spec("idx", seed=5, num_families=6, family_size=3,
                       function_size=28, standalone_functions=5)
    module = generate_program(spec)
    simplify_module(module)
    return module


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert set(available_strategies()) >= {
            "exhaustive", "size_buckets", "minhash_lsh"}

    def test_make_index_by_name(self, small_module):
        assert isinstance(make_index(small_module, "exhaustive"), ExhaustiveIndex)
        assert isinstance(make_index(small_module, "size_buckets"), SizeBucketIndex)
        assert isinstance(make_index(small_module, "minhash_lsh"), MinHashLSHIndex)

    def test_make_index_by_config(self, small_module):
        strategy = SearchStrategy(name="minhash_lsh", num_bands=4, rows_per_band=3)
        index = make_index(small_module, strategy)
        assert index.strategy is strategy

    def test_unknown_strategy_rejected(self, small_module):
        with pytest.raises(ValueError, match="unknown search strategy"):
            make_index(small_module, "nope")
        with pytest.raises(ValueError):
            resolve_strategy("also_nope")


class TestExhaustiveParity:
    """ExhaustiveIndex must reproduce the full-scan reference bit for bit."""

    def test_candidates_match_legacy_ranking(self, small_module):
        ranking = CandidateRanking(small_module, min_size=3)
        index = make_index(small_module, "exhaustive", min_size=3)
        assert index.functions_by_size() == ranking.functions_by_size()
        for threshold in (1, 3, 10):
            for function in ranking.functions_by_size():
                legacy = ranking.candidates_for(function, threshold)
                modern = index.candidates_for(function, threshold)
                assert [c.function for c in legacy] == [c.function for c in modern]
                assert [c.distance for c in legacy] == [c.distance for c in modern]

    def test_exclusions_respected(self, small_module):
        index = make_index(small_module, "exhaustive", min_size=3)
        functions = index.functions_by_size()
        query, excluded = functions[0], set(functions[1:4])
        result = index.candidates_for(query, 10, exclude=excluded)
        assert excluded.isdisjoint({c.function for c in result})
        assert query not in {c.function for c in result}


class TestSublinearRecall:
    """Sub-linear strategies must stay close to the exhaustive reference."""

    TOP_K = 2

    def _measure(self, module, strategy):
        reference = make_index(module, "exhaustive", min_size=3)
        index = make_index(module, strategy, min_size=3)
        identity = quality = queries = 0.0
        for function in reference.functions_by_size():
            expected = reference.candidates_for(function, self.TOP_K)
            observed = index.candidates_for(function, self.TOP_K)
            identity += topk_recall([c.function for c in expected],
                                    [c.function for c in observed])
            quality += quality_recall(expected, observed)
            queries += 1
        return identity / queries, quality / queries, index.stats

    def test_size_buckets_recall(self, workload):
        identity, quality, stats = self._measure(workload, "size_buckets")
        assert quality >= 0.95
        assert identity >= 0.9
        # Heterogeneous sizes let the bucketing skip part of the population.
        assert stats.scan_fraction < 1.0

    def test_minhash_lsh_recall_and_scan_budget(self, workload):
        identity, quality, stats = self._measure(workload, "minhash_lsh")
        # Acceptance bar: >= 0.9 recall while scanning < 25% of the pairs the
        # exhaustive strategy would score.
        assert quality >= 0.9
        assert identity >= 0.9
        assert stats.scan_fraction < 0.25

    def test_lsh_is_deterministic_across_indexes(self, workload):
        first = make_index(workload, "minhash_lsh", min_size=3)
        second = make_index(workload, "minhash_lsh", min_size=3)
        for function in first.functions_by_size()[:20]:
            assert [c.function for c in first.candidates_for(function, 3)] == \
                [c.function for c in second.candidates_for(function, 3)]


class TestIncrementalMaintenance:
    @pytest.mark.parametrize("strategy", ["exhaustive", "size_buckets", "minhash_lsh"])
    def test_remove_forgets_function(self, small_module, strategy):
        index = make_index(small_module, strategy, min_size=3)
        functions = index.functions_by_size()
        victim = functions[0]
        population = len(index)
        index.remove(victim)
        assert victim not in index
        assert len(index) == population - 1
        for function in index.functions_by_size():
            found = {c.function for c in index.candidates_for(function, population)}
            assert victim not in found
        # Removing twice is a no-op.
        index.remove(victim)
        assert len(index) == population - 1

    @pytest.mark.parametrize("strategy", ["exhaustive", "size_buckets", "minhash_lsh"])
    def test_update_reindexes_rewritten_function(self, strategy):
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Constant
        from repro.ir.types import I32

        spec = simple_spec("rewrite", seed=5, num_families=6, family_size=3,
                           function_size=28, standalone_functions=5)
        module = generate_program(spec)
        simplify_module(module)
        index = make_index(module, strategy, min_size=3)
        rewritten = index.functions_by_size()[-1]
        stale = index.fingerprints[rewritten]
        # Actually rewrite the body: grow it past its old size bucket (and
        # change its shingle set) so update() must discard the *old*
        # bucket/band entries derived from the stale fingerprint.
        block = rewritten.blocks[-1]
        builder = IRBuilder(block)
        builder.position_before(block.terminator)
        value = next(a for a in rewritten.args if a.type == I32)
        for _ in range(2 * stale.size + 8):
            value = builder.binary("xor", value, Constant(I32, 7))
        index.update(rewritten)
        fresh = index.fingerprints[rewritten]
        assert fresh == Fingerprint.of(rewritten)
        assert fresh != stale and fresh.size > 2 * stale.size
        assert index.stats.updates == 1
        # No ghost entries: the rewritten function is returned exactly once
        # per query, ranked by its *new* fingerprint.
        population = len(index)
        for query in index.functions_by_size()[:5]:
            if query is rewritten:
                continue
            found = [c.function for c in index.candidates_for(query, population)]
            assert found.count(rewritten) == 1
        if isinstance(index, MinHashLSHIndex):
            # The LSH pool dict would mask a stale band entry; check directly.
            for table in index._tables:
                assert sum(1 for members in table.values()
                           if rewritten in members) == 1

    def test_update_tracks_merge_pass_rewrites(self, small_module):
        """After a merge the thunked functions leave the index and the merged
        function becomes queryable — on every strategy."""
        for strategy in ("exhaustive", "size_buckets", "minhash_lsh"):
            spec = simple_spec("upd", seed=11, num_families=4, family_size=2,
                              function_size=30, standalone_functions=2)
            module = generate_program(spec)
            simplify_module(module)
            options = MergePassOptions(technique="salssa", exploration_threshold=2,
                                       search_strategy=strategy, verify=True)
            report = FunctionMergingPass(options).run(module)
            assert report.search_strategy == strategy
            stats = report.search_stats
            assert isinstance(stats, SearchStats)
            assert stats.queries > 0
            if report.profitable_merges:
                assert stats.removals >= 2 * report.profitable_merges


class TestMergePassIntegration:
    @pytest.mark.parametrize("strategy", ["exhaustive", "size_buckets", "minhash_lsh"])
    def test_pipeline_accepts_strategy(self, strategy):
        spec = simple_spec("pipe", seed=3, num_families=4, family_size=2,
                          function_size=30, standalone_functions=2)
        module = generate_program(spec)
        run = run_pipeline(module, "pipe", technique="salssa", threshold=1,
                           search_strategy=strategy)
        assert run.report is not None
        assert run.report.search_strategy == strategy
        assert verify_module(module, raise_on_error=False) == []

    def test_exhaustive_default_matches_explicit(self):
        reports = []
        for options in (MergePassOptions(technique="salssa"),
                        MergePassOptions(technique="salssa",
                                         search_strategy="exhaustive")):
            spec = simple_spec("dflt", seed=9, num_families=5, family_size=2,
                              function_size=35, standalone_functions=3)
            module = generate_program(spec)
            simplify_module(module)
            reports.append(FunctionMergingPass(options).run(module))
        first, second = reports
        assert first.search_strategy == second.search_strategy == "exhaustive"
        assert [(r.first, r.second, r.committed) for r in first.records] == \
            [(r.first, r.second, r.committed) for r in second.records]
        assert first.size_after == second.size_after

    def test_unknown_strategy_raises_before_running(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            FunctionMergingPass(MergePassOptions(search_strategy="bogus"))

    def test_lsh_merges_match_exhaustive_on_mibench(self):
        """On a real (generated) mibench program the LSH-driven pass should
        find essentially the merges the exhaustive pass finds."""
        spec = next(s for s in MIBENCH if s.name == "djpeg")
        merges = {}
        sizes = {}
        for strategy in ("exhaustive", "minhash_lsh"):
            module = spec.build()
            simplify_module(module)
            options = MergePassOptions(technique="salssa", exploration_threshold=1,
                                       search_strategy=strategy)
            report = FunctionMergingPass(options).run(module)
            merges[strategy] = report.profitable_merges
            sizes[strategy] = report.size_after
        assert merges["minhash_lsh"] >= 0.8 * merges["exhaustive"]
        assert sizes["minhash_lsh"] <= 1.05 * sizes["exhaustive"]


class TestHomogeneousPopulations:
    """Size bucketing composed with fingerprint bands (the ROADMAP fix):
    same-size functions must still partition instead of degenerating into one
    fully scanned bucket."""

    @staticmethod
    def _homogeneous_workload(num_functions=256, seed=7, size=30):
        import random as random_module
        from repro.workloads.generator import FamilySpec, ProgramSpec
        rng = random_module.Random(seed)
        families = []
        remaining = int(num_functions * 0.8)
        while remaining >= 2:
            family_size = min(rng.randint(2, 4), remaining)
            families.append(FamilySpec(size=family_size, divergence=0.07,
                                       function_size=size))
            remaining -= family_size
        spec = ProgramSpec(name="homog", seed=seed, families=families,
                           standalone_functions=num_functions
                           - sum(f.size for f in families),
                           standalone_size=size, with_main=False)
        module = generate_program(spec)
        simplify_module(module)
        return module

    def _measure(self, module, strategy, top_k=2):
        reference = make_index(module, "exhaustive", min_size=3)
        index = make_index(module, strategy, min_size=3)
        quality = queries = 0.0
        for function in reference.functions_by_size():
            quality += quality_recall(reference.candidates_for(function, top_k),
                                      index.candidates_for(function, top_k))
            queries += 1
        return quality / queries, index.stats.scan_fraction

    def test_bands_partition_homogeneous_population(self):
        module = self._homogeneous_workload()
        unbanded = SearchStrategy(name="size_buckets", bucket_bands=0)
        _, degenerate_scan = self._measure(module, unbanded)
        quality, banded_scan = self._measure(module, "size_buckets")
        # Pre-fix behaviour: essentially everything in one bucket is scanned.
        assert degenerate_scan > 0.85
        # Composed with fingerprint bands, the same population partitions —
        # and the distance-aware recall stays essentially exhaustive.
        assert banded_scan < 0.65
        assert quality >= 0.95

    def test_small_buckets_keep_exact_scan(self):
        # Below bucket_band_min the banding must not change the pool at all.
        module = self._homogeneous_workload(num_functions=48)
        banded = make_index(module, "size_buckets", min_size=3)
        unbanded = make_index(
            module, SearchStrategy(name="size_buckets", bucket_bands=0),
            min_size=3)
        for function in banded.functions_by_size():
            assert [c.function for c in banded.candidates_for(function, 3)] == \
                [c.function for c in unbanded.candidates_for(function, 3)]

    def test_banded_discard_removes_all_traces(self):
        module = self._homogeneous_workload()
        index = make_index(module, "size_buckets", min_size=3)
        victim = index.functions_by_size()[0]
        index.remove(victim)
        assert victim not in index._band_keys
        for tables in index._band_tables.values():
            for table in tables:
                for members in table.values():
                    assert victim not in members


class TestPersistentSignatures:
    """MinHash/LSH signatures loaded from a repro.persist store must be
    indistinguishable from freshly computed ones."""

    def test_store_backed_index_matches_cold_index(self, tmp_path, small_module):
        from repro.analysis.counters import track_constructions
        from repro.persist import ArtifactStore

        cold = make_index(small_module, "minhash_lsh", min_size=3)
        store = ArtifactStore(tmp_path)
        with track_constructions() as tracker:
            first = make_index(small_module, "minhash_lsh", min_size=3,
                               artifact_store=store)
        computed_cold = tracker.delta("MinHashSignature")
        # Content-identical functions share a digest, so even the first
        # store-backed build deduplicates: computed <= population.
        assert 0 < computed_cold <= len(first._signatures)
        with track_constructions() as tracker:
            warm = make_index(small_module, "minhash_lsh", min_size=3,
                              artifact_store=ArtifactStore(tmp_path))
        assert tracker.delta("MinHashSignature") == 0
        for function in cold.functions_by_size():
            expected = [c.function for c in cold.candidates_for(function, 3)]
            assert [c.function for c in first.candidates_for(function, 3)] == expected
            assert [c.function for c in warm.candidates_for(function, 3)] == expected

    def test_different_banding_configs_do_not_share_signatures(self, tmp_path,
                                                               small_module):
        from repro.persist import ArtifactStore

        store = ArtifactStore(tmp_path)
        make_index(small_module, "minhash_lsh", min_size=3, artifact_store=store)
        other = SearchStrategy(name="minhash_lsh", num_bands=4, rows_per_band=2)
        reshaped = make_index(small_module, other, min_size=3,
                              artifact_store=store)
        # The reshaped index found nothing reusable (different config key)
        # and its signatures have its own geometry.
        total = 4 * 2 + other.fingerprint_bands * other.fingerprint_rows
        assert all(len(signature) == total
                   for signature in reshaped._signatures.values())


class TestStats:
    def test_record_and_merge(self):
        first = SearchStats(strategy="minhash_lsh")
        first.record_query(scanned=10, returned=2, population=100)
        second = SearchStats(strategy="minhash_lsh")
        second.record_query(scanned=30, returned=1, population=100)
        combined = combine_search_stats([first, None, second])
        assert combined.queries == 2
        assert combined.candidates_scanned == 40
        assert combined.population_available == 200
        assert combined.scan_fraction == pytest.approx(0.2)
        assert combined.strategy == "minhash_lsh"

    def test_mixed_strategies_flagged(self):
        combined = combine_search_stats(
            [SearchStats(strategy="exhaustive"), SearchStats(strategy="minhash_lsh")])
        assert combined.strategy == "mixed"

    def test_topk_recall_edge_cases(self):
        assert topk_recall([], ["x"]) == 1.0
        assert topk_recall(["a", "b"], ["b"]) == 0.5
        assert topk_recall(["a", "b"], ["b", "a"]) == 1.0


class TestShingles:
    def test_shingles_distinguish_order(self, small_module):
        functions = [f for f in small_module.defined_functions()
                     if f.num_instructions() >= 6][:2]
        for function in functions:
            shingles = opcode_shingles(function, 3)
            assert shingles
            assert all(len(s) == 3 for s in shingles)
