"""Tests for the candidate index (``repro.search``).

Covers: exact parity with the full-scan reference ranking, incremental
remove/update maintenance, the index's use by the merge pass, and the
search counters.
"""

import pytest

from repro.analysis.fingerprint import Fingerprint
from repro.harness.metrics import combine_search_stats
from repro.merge import pass_manager
from repro.merge.pass_manager import FunctionMergingPass, MergePassOptions
from repro.search import CandidateIndex, SearchStats, make_index
from repro.transforms.simplify import simplify_module
from repro.workloads.generator import generate_program, simple_spec

from .reference import CandidateRanking


@pytest.fixture(scope="module")
def small_module():
    spec = simple_spec("idx", seed=5, num_families=6, family_size=3,
                       function_size=28, standalone_functions=5)
    module = generate_program(spec)
    simplify_module(module)
    return module


class TestExhaustiveParity:
    """The index must reproduce the full-scan reference bit for bit."""

    def test_candidates_match_legacy_ranking(self, small_module):
        ranking = CandidateRanking(small_module, min_size=3)
        index = make_index(small_module, min_size=3)
        assert index.functions_by_size() == ranking.functions_by_size()
        for threshold in (1, 3, 10):
            for function in ranking.functions_by_size():
                legacy = ranking.candidates_for(function, threshold)
                modern = index.candidates_for(function, threshold)
                assert [c.function for c in legacy] == [c.function for c in modern]
                assert [c.distance for c in legacy] == [c.distance for c in modern]

    def test_exclusions_respected(self, small_module):
        index = make_index(small_module, min_size=3)
        functions = index.functions_by_size()
        query, excluded = functions[0], set(functions[1:4])
        result = index.candidates_for(query, 10, exclude=excluded)
        assert excluded.isdisjoint({c.function for c in result})
        assert query not in {c.function for c in result}


class TestIncrementalMaintenance:
    # The case keeps the id it had when every index kind ran it.
    @pytest.mark.parametrize("build", [make_index], ids=["exhaustive"])
    def test_remove_forgets_function(self, small_module, build):
        index = build(small_module, min_size=3)
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

    def test_update_reindexes_rewritten_function(self):
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Constant
        from repro.ir.types import I32

        spec = simple_spec("rewrite", seed=5, num_families=6, family_size=3,
                           function_size=28, standalone_functions=5)
        module = generate_program(spec)
        simplify_module(module)
        index = make_index(module, min_size=3)
        rewritten = index.functions_by_size()[-1]
        stale = index.fingerprints[rewritten]
        # Actually rewrite the body: grow it well past its old size so
        # update() must take the stale entry out of its old size position.
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

    def test_update_tracks_merge_pass_rewrites(self):
        """After a merge the thunked functions leave the index and the merged
        function becomes queryable."""
        spec = simple_spec("upd", seed=11, num_families=4, family_size=2,
                           function_size=30, standalone_functions=2)
        module = generate_program(spec)
        simplify_module(module)
        options = MergePassOptions(technique="salssa", exploration_threshold=2,
                                   verify=True)
        report = FunctionMergingPass(options).run(module)
        stats = report.search_stats
        assert isinstance(stats, SearchStats)
        assert stats.queries > 0
        assert report.profitable_merges
        assert stats.removals >= 2 * report.profitable_merges


class TestMergePassIntegration:
    def test_exhaustive_default_matches_explicit(self, monkeypatch):
        """The pass builds one index per run, through ``make_index``; an
        index constructed explicitly in its place merges the same pairs."""
        built = []

        def explicit(module, min_size, **kwargs):
            built.append(CandidateIndex(module, min_size=min_size, **kwargs))
            return built[-1]

        reports = []
        for replace in (False, True):
            spec = simple_spec("dflt", seed=9, num_families=5, family_size=2,
                               function_size=35, standalone_functions=3)
            module = generate_program(spec)
            simplify_module(module)
            with monkeypatch.context() as patcher:
                if replace:
                    patcher.setattr(pass_manager, "make_index", explicit)
                reports.append(FunctionMergingPass(
                    MergePassOptions(technique="salssa")).run(module))
        first, second = reports
        assert len(built) == 1
        assert second.search_stats is built[0].stats
        assert [(r.first, r.second, r.committed) for r in first.records] == \
            [(r.first, r.second, r.committed) for r in second.records]
        assert first.size_after == second.size_after
        assert first.search_stats.queries == second.search_stats.queries > 0


class TestStats:
    def test_record_and_merge(self):
        first = SearchStats()
        first.record_query(scanned=10, returned=2, population=100)
        second = SearchStats()
        second.record_query(scanned=30, returned=1, population=100)
        combined = combine_search_stats([first, None, second])
        assert combined.queries == 2
        assert combined.candidates_scanned == 40
        assert combined.population_available == 200
        assert combined.scan_fraction == pytest.approx(0.2)
