"""Experiment harness: the pipeline, measurements and per-figure runners."""

from .metrics import (
    Measurement,
    arithmetic_mean,
    combine_analysis_stats,
    combine_search_stats,
    geometric_mean,
    measure_peak_memory,
    measure_time,
    speedup,
    stopwatch,
)
from .pipeline import (
    IncrementalRun,
    PipelineResult,
    baseline_compile,
    make_pass_options,
    run_pipeline,
    run_pipeline_incremental,
)
from .experiments import (
    DEFAULT_MIBENCH_SUBSET,
    DEFAULT_SPEC_SUBSET,
    AnalysisCacheResult,
    AnalysisCacheRow,
    analysis_cache_comparison,
    merge_report_digest,
    search_workload,
    Figure5Result,
    Figure19Result,
    Figure20Result,
    Figure21Result,
    Figure22Result,
    Figure23Result,
    Figure24Result,
    Figure25Result,
    ReductionResult,
    Table1Result,
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
    table1_mibench_merges,
)
from . import reporting

__all__ = [name for name in dir() if not name.startswith("_")]
