"""The telemetry spine threaded through the pipeline, end to end.

The contract under test is the package's first design constraint: metrics
only observe.  A run with a registry attached must produce bit-identical
merge reports to a run without one, in every execution mode — and the
registry must come back holding the phases and the folded stats counters.
"""

import tracemalloc

import pytest

from repro.harness.experiments import merge_report_digest, search_workload
from repro.harness.pipeline import run_pipeline, run_pipeline_incremental
from repro.obs import PHASE_TIMER, MetricsRegistry

SIZE = 48


def run(metrics=None, **kwargs):
    module = search_workload(SIZE, seed=7)
    return run_pipeline(module, "obs-test", technique="salssa", threshold=1,
                        metrics=metrics, **kwargs)


class TestBitIdentical:
    def test_reports_identical_with_and_without_telemetry(self):
        with_metrics = run(metrics=True)
        without = run()
        assert without.metrics is None
        assert with_metrics.metrics is not None
        assert merge_report_digest(with_metrics.report) == \
            merge_report_digest(without.report)
        assert with_metrics.final_size == without.final_size


class TestPhaseReconciliation:
    def test_span_totals_match_pipeline_timings(self):
        result = run(metrics=True)
        registry = result.metrics
        # The "merge" span wraps exactly the timed region of merge_seconds,
        # and "baseline_compile" wraps the baseline_compile stopwatch.
        assert registry.phase_seconds("merge") == \
            pytest.approx(result.merge_seconds, abs=0.05)
        assert registry.phase_seconds("baseline_compile") == \
            pytest.approx(result.baseline_compile_seconds, abs=0.05)

    def test_expected_phases_present_and_nested(self):
        result = run(metrics=True)
        names = {record.name for record in result.metrics.trace}
        assert {"baseline_compile", "baseline_compile.mem2reg",
                "baseline_compile.simplify", "baseline_compile.verify",
                "baseline_compile.emit", "merge", "merge.index_build",
                "merge.rank"} <= names
        rank = result.metrics.phase_records("merge.rank")[0]
        assert rank.path == ("merge", "merge.rank")
        # Spans are queryable as plain metrics too.
        assert result.metrics.timer(PHASE_TIMER, phase="merge").count == 1

    def test_attempt_timers_record_per_attempt(self):
        result = run(metrics=True)
        timer = result.metrics.timer("repro_merge_alignment_seconds",
                                     technique="salssa")
        assert timer.count == result.report.attempts
        assert timer.sum == pytest.approx(result.report.alignment_seconds,
                                          abs=1e-6)


class TestAdapterFolds:
    def test_stats_views_and_registry_agree(self):
        result = run(metrics=True)
        registry = result.metrics
        stats = result.report.search_stats
        assert registry.counter("repro_search_queries_total").value \
            == stats.queries
        assert registry.counter("repro_merge_attempts_total",
                                technique="salssa").value == \
            result.report.attempts
        analysis = result.analysis_stats
        assert registry.counter("repro_analysis_queries_total",
                                result="hit").value == analysis.hits

    def test_store_folded_once(self, tmp_path):
        # The store's counters reach the registry through the one fold
        # point, counted once.
        result = run(metrics=True, cache_dir=str(tmp_path))
        stats = result.persist_stats
        assert stats.loads > 0
        registry = result.metrics
        hits = registry.counter("repro_store_loads_total", result="hit").value
        misses = registry.counter("repro_store_loads_total",
                                  result="miss").value
        assert hits == stats.hits
        assert misses == stats.misses

    def test_live_hooks_time_analysis_and_store(self, tmp_path):
        result = run(metrics=True, cache_dir=str(tmp_path))
        registry = result.metrics
        io_count = registry.timer("repro_store_io_seconds", op="load").count \
            + registry.timer("repro_store_io_seconds", op="store").count
        assert io_count > 0
        compute = registry.family("repro_analysis_compute_seconds", "timer",
                                  label_names=("analysis",))
        assert sum(child.count for _, child in compute.samples()) > 0

    def test_accumulating_registry_across_runs(self):
        registry = MetricsRegistry()
        run(metrics=registry)
        run(metrics=registry)
        assert registry.counter("repro_merge_attempts_total",
                                technique="salssa").value == \
            2 * run(metrics=True).metrics.counter(
                "repro_merge_attempts_total", technique="salssa").value


class TestOwnedRegistryLifetime:
    """A registry the pipeline creates is closed however the run ends, so a
    failed ``metrics="deep"`` run never leaves ``tracemalloc`` tracing."""

    def test_cold_run_that_raises_stops_tracing(self):
        assert not tracemalloc.is_tracing()
        module = search_workload(SIZE, seed=7)
        with pytest.raises(ValueError):
            run_pipeline(module, "obs-test", technique="bogus",
                         metrics="deep")
        assert not tracemalloc.is_tracing()

    def test_incremental_run_that_raises_stops_tracing(self):
        module = search_workload(SIZE, seed=7)
        state = run_pipeline_incremental(module, technique="fmsa").state
        assert not tracemalloc.is_tracing()
        with pytest.raises(ValueError):
            run_pipeline_incremental(module, state, technique="salssa",
                                     metrics="deep")
        assert not tracemalloc.is_tracing()


class TestExportSurface:
    def test_pipeline_registry_exports_cleanly(self):
        result = run(metrics=True)
        text = result.metrics.to_prometheus()
        assert "# TYPE repro_phase_seconds histogram" in text
        assert "repro_pipeline_baseline_compile_seconds_total" in text
        snapshot = result.metrics.snapshot()
        restored = MetricsRegistry().merge_snapshot(snapshot)
        assert restored.to_prometheus() == text

    def test_memory_measurement_still_works_with_telemetry(self):
        result = run(metrics=True, measure_memory=True)
        assert result.peak_merge_bytes > 0
