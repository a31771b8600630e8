"""Adapters: fold the pipeline's existing stats dataclasses into a registry.

``SearchStats``, ``AnalysisStats`` and ``StoreStats`` remain the
per-subsystem views their callers and tests consume — nothing about them
changed.  These adapters are the bridge the other way: given any of those
objects, they record the same counters as labeled metric families
on a :class:`~repro.obs.MetricsRegistry`, so one registry ends up holding
the whole run's telemetry in one exportable namespace.

Everything here is duck-typed on the stats objects' public attributes (no
imports from the stats modules), so :mod:`repro.obs` stays dependency-free
and import-cycle-safe — it can be threaded through any layer.

Fold points: :func:`observe_pipeline_result` is called exactly once per run
by :func:`repro.harness.run_pipeline`, and it fans out to the per-subsystem
folds below.  Callers driving :class:`repro.merge.FunctionMergingPass`
directly can call the per-subsystem folds themselves — each ``observe_*``
adds, so folding the same stats object twice double-counts, exactly like
the ``combine_*`` helpers in :mod:`repro.harness.metrics`.
"""

from __future__ import annotations


def observe_search_stats(registry, stats) -> None:
    """Fold one :class:`~repro.search.stats.SearchStats` into ``registry``."""
    if registry is None or stats is None:
        return
    registry.counter(
        "repro_search_queries_total",
        help="candidates_for queries answered by the candidate index."
        ).inc(stats.queries)
    registry.counter(
        "repro_search_candidates_scanned_total",
        help="Candidates scored against query fingerprints."
        ).inc(stats.candidates_scanned)
    registry.counter(
        "repro_search_candidates_returned_total",
        help="Candidates returned to the merge loop."
        ).inc(stats.candidates_returned)
    registry.counter(
        "repro_search_population_available_total",
        help="Candidates a full scan would have scored."
        ).inc(stats.population_available)
    for op, count in (("insert", stats.inserts), ("remove", stats.removals),
                      ("update", stats.updates)):
        registry.counter(
            "repro_search_index_mutations_total",
            help="Incremental index maintenance operations after the build.",
            op=op).inc(count)
    registry.gauge(
        "repro_search_scan_fraction",
        help="Fraction of the full scan's candidate-pair work this run did.",
        merge_mode="max").set(stats.scan_fraction)


def observe_analysis_stats(registry, stats) -> None:
    """Fold one :class:`~repro.analysis.manager.AnalysisStats` into ``registry``."""
    if registry is None or stats is None:
        return
    for result, count in (("hit", stats.hits), ("miss", stats.misses)):
        registry.counter(
            "repro_analysis_queries_total",
            help="Analysis-manager queries by outcome.",
            result=result).inc(count)
    registry.counter(
        "repro_analysis_invalidations_total",
        help="Stale cache entries dropped on epoch mismatch.").inc(
            stats.invalidations)
    registry.counter(
        "repro_analysis_preserved_total",
        help="Entries re-stamped by a transform's preservation declaration."
        ).inc(stats.preserved)
    for analysis, count in sorted(stats.computed_by_analysis.items()):
        registry.counter(
            "repro_analysis_computed_total",
            help="Analyses actually recomputed, by analysis name.",
            analysis=analysis).inc(count)
    registry.gauge(
        "repro_analysis_hit_ratio",
        help="Fraction of analysis queries answered without recomputation.",
        merge_mode="max").set(stats.hit_rate)


def observe_store_stats(registry, stats) -> None:
    """Fold one :class:`~repro.persist.StoreStats` into ``registry``."""
    if registry is None or stats is None:
        return
    for result, count in (("hit", stats.hits), ("miss", stats.misses)):
        registry.counter(
            "repro_store_loads_total",
            help="Artifact-store load attempts by outcome.",
            result=result).inc(count)
    registry.counter(
        "repro_store_stores_total",
        help="Records published to the artifact store.").inc(stats.stores)
    registry.counter(
        "repro_store_corrupt_records_total",
        help="Records rejected as unreadable or semantically invalid."
        ).inc(stats.corrupt_records)
    registry.counter(
        "repro_store_schema_mismatches_total",
        help="Records rejected on schema-version mismatch.").inc(
            stats.schema_mismatches)
    registry.counter(
        "repro_store_write_errors_total",
        help="Failed artifact-store write attempts.").inc(stats.write_errors)
    registry.gauge(
        "repro_store_hit_ratio",
        help="Fraction of store loads served from disk.",
        merge_mode="max").set(stats.hit_rate)


def observe_incremental_stats(registry, stats) -> None:
    """Fold one :class:`~repro.incremental.IncrementalStats` into ``registry``.

    Called once per delta by ``run_pipeline_incremental``; the
    ``repro_incremental_*`` families are what the ISSUE's perf bar reads —
    pairs rescored versus reused, merges spliced versus recomputed — and
    every counter adds across deltas when the caller threads one registry
    through a whole delta stream.
    """
    if registry is None or stats is None:
        return
    registry.counter(
        "repro_incremental_deltas_total",
        help="Deltas replayed through the incremental pipeline.").inc(1)
    for kind, count in (("added", stats.functions_added),
                        ("changed", stats.functions_changed),
                        ("removed", stats.functions_removed)):
        registry.counter(
            "repro_incremental_dirty_functions_total",
            help="Delta members ingested, by delta kind.",
            kind=kind).inc(count)
    for outcome, count in (("rescored", stats.pairs_rescored),
                           ("reused", stats.pairs_reused)):
        registry.counter(
            "repro_incremental_pairs_total",
            help="Pair attempts by outcome: rescored (dirty endpoint) "
                 "versus reused from the attempt cache.",
            outcome=outcome).inc(count)
    for outcome, count in (("spliced", stats.merges_spliced),
                           ("recomputed", stats.merges_recomputed)):
        registry.counter(
            "repro_incremental_merges_total",
            help="Committed cached merges by materialization path: spliced "
                 "from recorded text versus deterministically re-merged.",
            outcome=outcome).inc(count)
    registry.counter(
        "repro_incremental_cache_evicted_total",
        help="Attempt-cache entries dropped by the LRU cap or compact()."
        ).inc(getattr(stats, "cache_evicted", 0))
    registry.gauge(
        "repro_incremental_pair_reuse_ratio",
        help="Fraction of this delta's pair attempts served from the "
             "attempt cache.",
        merge_mode="last").set(stats.pair_reuse_fraction)


def observe_merge_report(registry, report) -> None:
    """Fold one :class:`~repro.merge.pass_manager.MergeReport` into ``registry``.

    Records the pass-level outcome counters plus the report's search
    stats.  (Called by :func:`observe_pipeline_result`;
    call it directly only for reports produced outside ``run_pipeline``.)
    """
    if registry is None or report is None:
        return
    technique = report.technique
    registry.counter(
        "repro_merge_attempts_total",
        help="Merge attempts evaluated by the pass.",
        technique=technique).inc(report.attempts)
    registry.counter(
        "repro_merge_profitable_total",
        help="Profitable merges committed by the pass.",
        technique=technique).inc(report.profitable_merges)
    registry.counter(
        "repro_merge_alignment_seconds_total",
        help="Wall-clock spent aligning candidate pairs.",
        technique=technique).inc(report.alignment_seconds)
    registry.counter(
        "repro_merge_codegen_seconds_total",
        help="Wall-clock spent generating merged bodies.",
        technique=technique).inc(report.codegen_seconds)
    registry.counter(
        "repro_merge_alignment_dp_cells_total",
        help="Alignment dynamic-programming cells filled.",
        technique=technique).inc(report.total_alignment_cells)
    registry.gauge(
        "repro_merge_size_reduction_percent",
        help="Object-size reduction of the merge pass, percent.",
        merge_mode="last", technique=technique).set(report.reduction_percent)
    observe_search_stats(registry, report.search_stats)


def observe_pipeline_result(registry, result) -> None:
    """Fold one :class:`~repro.harness.pipeline.PipelineResult` into ``registry``.

    The single per-run fold point ``run_pipeline`` uses: pipeline-level
    sizes and timings, the merge report (when merging ran), and the
    analysis-manager and artifact-store counters.
    """
    if registry is None or result is None:
        return
    technique = result.technique
    registry.gauge(
        "repro_pipeline_baseline_size",
        help="Module size before merging (size-model units).",
        merge_mode="last", technique=technique).set(result.baseline_size)
    registry.gauge(
        "repro_pipeline_final_size",
        help="Module size after merging (size-model units).",
        merge_mode="last", technique=technique).set(result.final_size)
    registry.gauge(
        "repro_pipeline_reduction_percent",
        help="End-to-end object-size reduction, percent.",
        merge_mode="last", technique=technique).set(result.reduction_percent)
    registry.counter(
        "repro_pipeline_baseline_compile_seconds_total",
        help="Wall-clock of the baseline compile (non-merging) stage.",
        technique=technique).inc(result.baseline_compile_seconds)
    registry.counter(
        "repro_pipeline_merge_seconds_total",
        help="Wall-clock of the function-merging stage.",
        technique=technique).inc(result.merge_seconds)
    if result.peak_merge_bytes:
        registry.gauge(
            "repro_pipeline_peak_merge_bytes",
            help="Peak traced memory while the merge pass ran.",
            merge_mode="max", technique=technique).set(result.peak_merge_bytes)
    if result.report is not None:
        observe_merge_report(registry, result.report)
    observe_store_stats(registry, result.persist_stats)
    observe_analysis_stats(registry, result.analysis_stats)


def attach_all(registry, *, analysis_manager=None, artifact_store=None,
               candidate_index=None) -> None:
    """Live-attach ``registry`` to whichever instrumented components exist.

    Convenience for callers wiring components by hand; ``run_pipeline`` and
    the merge pass call the individual ``attach_metrics`` hooks themselves.
    """
    if registry is None:
        return
    for component in (analysis_manager, artifact_store, candidate_index):
        if component is not None:
            component.attach_metrics(registry)
