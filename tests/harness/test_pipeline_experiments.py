"""Tests for the experiment harness: metrics, pipeline and figure runners.

These use tiny benchmark subsets so the whole file stays fast; the full
figure-scale runs live under ``benchmarks/``.
"""

import pytest

from repro.harness import (
    combine_search_stats,
    figure5_reg2mem_growth,
    figure17_spec_reduction,
    figure18_mibench_reduction,
    figure19_merge_breakdown,
    figure20_phi_coalescing,
    figure21_profitable_merges,
    figure22_memory_usage,
    figure23_stage_speedups,
    figure24_compile_time,
    figure25_runtime_overhead,
    geometric_mean,
    measure_peak_memory,
    measure_time,
    run_pipeline,
    speedup,
    table1_mibench_merges,
)
from repro.harness import reporting
from repro.workloads import get_benchmark, get_mibench

SMALL_SPEC = ("462.libquantum", "470.lbm")
SMALL_MIBENCH = ("CRC32", "bitcount")


class TestMetrics:
    def test_measure_time(self):
        result, seconds = measure_time(sum, range(1000))
        assert result == sum(range(1000)) and seconds >= 0

    def test_measure_peak_memory(self):
        result, peak = measure_peak_memory(lambda: [0] * 100_000)
        assert len(result) == 100_000 and peak > 100_000

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        assert speedup(1.0, 0.0) == float("inf")


class TestPipeline:
    def test_baseline_only(self):
        module = get_benchmark("470.lbm").build()
        result = run_pipeline(module, "470.lbm", technique="none")
        assert result.final_size == result.baseline_size
        assert result.reduction_percent == 0.0

    @pytest.mark.parametrize("technique", ["salssa", "fmsa"])
    def test_merging_pipeline_produces_report(self, technique):
        module = get_benchmark("462.libquantum").build()
        result = run_pipeline(module, "462.libquantum", technique=technique, threshold=1)
        assert result.report is not None
        assert result.report.attempts > 0
        assert result.final_size <= result.baseline_size
        assert result.normalized_compile_time >= 1.0

    def test_memory_measurement_path(self):
        module = get_mibench("bitcount").build()
        result = run_pipeline(module, "bitcount", technique="salssa",
                              target="arm_thumb", measure_memory=True)
        assert result.peak_merge_bytes > 0

    def test_search_stats_aggregation(self):
        reports = []
        for name in SMALL_MIBENCH:
            module = get_mibench(name).build()
            run = run_pipeline(module, name, technique="salssa",
                               target="arm_thumb")
            assert run.report.search_stats.queries > 0
            assert reporting.format_search_stats(run.report.search_stats)
            reports.append(run.report.search_stats)
        combined = combine_search_stats(reports)
        assert combined.queries == sum(s.queries for s in reports)


class TestFigureRunners:
    def test_figure5(self):
        result = figure5_reg2mem_growth(benchmarks=SMALL_SPEC)
        assert len(result.rows) == 2
        # Register demotion must grow every benchmark noticeably (paper: ~1.75x).
        assert all(row.normalized > 1.2 for row in result.rows)
        assert result.geomean_growth > 1.2
        assert "normalized" in reporting.format_figure5(result)

    def test_figure17(self):
        result = figure17_spec_reduction(benchmarks=SMALL_SPEC)
        assert {row.technique for row in result.rows} == {"fmsa", "salssa"}
        summary = result.summary()
        assert ("salssa", 1) in summary and ("fmsa", 1) in summary
        assert reporting.format_reduction(result)

    def test_figure18_and_table1(self):
        result = figure18_mibench_reduction(benchmarks=SMALL_MIBENCH)
        assert len(result.rows) == 4
        table = table1_mibench_merges(benchmarks=SMALL_MIBENCH)
        assert len(table.rows) == 2
        crc = next(r for r in table.rows if r.benchmark == "CRC32")
        assert crc.fmsa_merges == 0 and crc.salssa_merges == 0
        assert reporting.format_table1(table)

    def test_figure19(self):
        result = figure19_merge_breakdown("cjpeg")
        assert result.baseline_size > 0
        assert isinstance(result.contributions_percent, list)
        assert reporting.format_figure19(result)

    def test_figure20(self):
        result = figure20_phi_coalescing(benchmarks=("462.libquantum",))
        assert len(result.rows) == 1
        means = result.geomeans()
        assert set(means) == {"fmsa", "salssa_nopc", "salssa"}
        assert reporting.format_figure20(result)

    def test_figure21(self):
        result = figure21_profitable_merges(benchmarks=SMALL_SPEC)
        assert result.total_salssa >= result.total_fmsa >= 0
        assert reporting.format_figure21(result)

    def test_figure22(self):
        result = figure22_memory_usage(benchmarks=("470.lbm",))
        row = result.rows[0]
        assert row.fmsa_bytes > 0 and row.salssa_bytes > 0
        # Demotion makes FMSA align longer sequences: more DP cells.
        assert row.fmsa_dp_cells > row.salssa_dp_cells
        assert reporting.format_figure22(result)

    def test_figure23(self):
        result = figure23_stage_speedups(benchmarks=("462.libquantum",))
        row = result.rows[0]
        assert row.fmsa_alignment_seconds > 0 and row.salssa_alignment_seconds > 0
        assert result.geomean_alignment_speedup > 0
        assert reporting.format_figure23(result)

    def test_figure24(self):
        result = figure24_compile_time(benchmarks=("470.lbm",))
        assert all(row.normalized_time >= 1.0 for row in result.rows)
        assert reporting.format_figure24(result)

    def test_figure25(self):
        result = figure25_runtime_overhead(benchmarks=("470.lbm",))
        assert result.rows, "runtime experiment produced no rows"
        for row in result.rows:
            assert row.baseline_steps > 0 and row.merged_steps > 0
        assert reporting.format_figure25(result)
