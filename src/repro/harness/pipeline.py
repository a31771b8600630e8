"""The compilation pipeline used by every experiment.

It mirrors the paper's Figure 16: the per-benchmark module (our stand-in for
the LTO-linked IR of the program) goes through a clean-up pass (the ``opt``
stage), then optionally through function merging (FMSA or SalSSA), and the
final "object size" is computed with a target size model.  Baseline = the same
pipeline without function merging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..analysis.manager import AnalysisStats, ModuleAnalysisManager
from ..analysis.size_model import SizeModel, X86_64, get_target
from ..incremental import IncrementalConfig, IncrementalStats, ModuleDelta, \
    PipelineState, load_state, save_state
from ..obs import EventLog, MetricsRegistry, as_registry, attach_events, \
    attach_run_ledger, cached_bucket_overrides, maybe_span, \
    observe_incremental_stats, observe_pipeline_result, record_pipeline_run
from ..persist import ArtifactStore, PersistentAnalysisCache, StoreStats
from ..ir.module import Module
from ..ir.printer import print_module
from ..ir.verifier import verify_module
from ..merge.pass_manager import FunctionMergingPass, MergePassOptions, MergeReport
from ..merge.salssa import SalSSAOptions
from ..transforms.mem2reg import promote_module
from ..transforms.simplify import simplify_module
from .metrics import measure_peak_memory


@dataclass
class PipelineResult:
    """Everything measured for one (benchmark, technique, threshold) run."""

    benchmark: str
    technique: str
    threshold: int
    baseline_size: int
    final_size: int
    baseline_instructions: int
    final_instructions: int
    baseline_compile_seconds: float
    merge_seconds: float
    report: Optional[MergeReport] = None
    peak_merge_bytes: int = 0
    #: Cache hit/miss/invalidation counters of the module-level analysis
    #: manager (None when the run was executed without analysis caching).
    analysis_stats: Optional[AnalysisStats] = None
    #: Hit/miss/load/store counters of the content-addressed artifact store
    #: (None when the run had no ``cache_dir`` — the always-cold default).
    persist_stats: Optional[StoreStats] = None
    #: The run's unified telemetry (see :mod:`repro.obs`): every stats view
    #: above folded into one registry, plus phase spans and timers.  None
    #: unless ``run_pipeline`` was called with ``metrics=``; export with
    #: ``result.metrics.to_prometheus()`` or ``result.metrics.snapshot()``.
    metrics: Optional[MetricsRegistry] = None

    @property
    def reduction_percent(self) -> float:
        if self.baseline_size == 0:
            return 0.0
        return 100.0 * (self.baseline_size - self.final_size) / self.baseline_size

    @property
    def normalized_compile_time(self) -> float:
        """End-to-end compile time normalised to the no-merging baseline."""
        if self.baseline_compile_seconds <= 0:
            return 1.0
        return (self.baseline_compile_seconds + self.merge_seconds) / \
            self.baseline_compile_seconds


def baseline_compile(module: Module,
                     analysis_manager: Optional[ModuleAnalysisManager] = None,
                     metrics: Optional[MetricsRegistry] = None) -> float:
    """The "rest of the compiler" proxy: clean-up, verification and emission.

    Returns the time spent, which the compile-time experiment (Figure 24) uses
    as the denominator when normalising the merging overhead.  With a
    ``metrics`` registry attached, the stage also records a
    ``baseline_compile`` span with one sub-span per sub-stage.
    """
    started = time.perf_counter()
    with maybe_span(metrics, "baseline_compile"):
        with maybe_span(metrics, "baseline_compile.mem2reg"):
            promote_module(module, analysis_manager)  # runs early in any -O pipeline
        with maybe_span(metrics, "baseline_compile.simplify"):
            simplify_module(module, analysis_manager)
        with maybe_span(metrics, "baseline_compile.verify"):
            verify_module(module, raise_on_error=False, manager=analysis_manager)
        with maybe_span(metrics, "baseline_compile.emit"):
            print_module(module)  # stands in for instruction selection / emission
    return time.perf_counter() - started


def make_pass_options(technique: str, threshold: int, size_model: SizeModel,
                      phi_coalescing: bool = True) -> MergePassOptions:
    """Build pass options for one experimental configuration."""
    return MergePassOptions(
        technique=technique,
        exploration_threshold=threshold,
        size_model=size_model,
        salssa=SalSSAOptions(phi_coalescing=phi_coalescing),
    )


def _pipeline_registry(metrics, events, run_ledger
                       ) -> Optional[MetricsRegistry]:
    """The run's registry: ``metrics=`` coerced, with ``events=`` and
    ``run_ledger=`` attached (each needs a registry to ride on, so either
    creates a plain one when ``metrics`` is off).

    An explicitly passed registry is used as-is — its owner already chose
    its ladders.  Registries the pipeline creates get trend-tuned histogram
    ladders; with no usable quantile history in ``benchmarks/trend.jsonl``,
    :func:`~repro.obs.cached_bucket_overrides` returns ``{}`` and behaviour
    is byte-for-byte the untuned default.
    """
    wants_events = events is not None and events is not False
    if isinstance(metrics, MetricsRegistry):
        registry = metrics
    elif metrics is None and not wants_events and run_ledger is None:
        return None
    elif metrics is None or metrics is True or metrics == "deep":
        deep = metrics == "deep"
        registry = MetricsRegistry(
            trace_memory=deep, deep=deep,
            bucket_overrides=cached_bucket_overrides() or None)
    else:
        return as_registry(metrics)  # raises its TypeError
    try:
        if wants_events:
            attach_events(registry, events)
        if run_ledger is not None:
            attach_run_ledger(registry, run_ledger)
    except BaseException:
        _close_owned(registry, metrics)
        raise
    return registry


def _close_owned(registry: Optional[MetricsRegistry], metrics) -> None:
    """Close a registry the pipeline created (``metrics=True``/``"deep"``,
    or one made for ``events``/``run_ledger``): nobody else can stop the
    ``tracemalloc`` it may have started.  Closing never discards recorded
    data, and a caller's own registry is left alone."""
    if registry is not None and registry is not metrics:
        registry.close()


def run_pipeline(module: Module, benchmark: str, technique: str = "salssa",
                 threshold: int = 1, target: str = "x86_64",
                 phi_coalescing: bool = True,
                 measure_memory: bool = False,
                 analysis_manager: Optional[ModuleAnalysisManager] = None,
                 analysis_caching: bool = True,
                 cache_dir: Optional[str] = None,
                 artifact_store: Optional[ArtifactStore] = None,
                 metrics: Union[None, bool, str, MetricsRegistry] = None,
                 events: Union[None, bool, EventLog] = None,
                 run_ledger=None
                 ) -> PipelineResult:
    """Run the full pipeline on ``module`` (which is consumed/mutated).

    ``technique`` may be ``"salssa"``, ``"fmsa"`` or ``"none"`` (baseline only).

    The pipeline owns a module-level :class:`ModuleAnalysisManager` shared by
    the clean-up transforms, the verifier, the merge pass, its cost model and
    the candidate index; its counters are surfaced on
    :attr:`PipelineResult.analysis_stats`.  Pass ``analysis_caching=False``
    (or an explicit ``analysis_manager``) to override — merge outcomes are
    bit-identical with and without the cache, only the work differs.

    ``cache_dir`` (or a live ``artifact_store``) turns on cross-run
    persistence (see :mod:`repro.persist`): the pipeline-owned manager then
    loads fingerprints and function sizes by content digest, and the store's
    counters are surfaced on :attr:`PipelineResult.persist_stats`.  Reports are
    bit-identical with a cold, warm or absent store.  (An explicitly passed
    ``analysis_manager`` is used as-is — it keeps whatever persistent tier it
    was built with.)

    ``metrics`` turns on the unified telemetry spine (see :mod:`repro.obs`):
    ``True`` gives the run a fresh :class:`~repro.obs.MetricsRegistry`,
    ``"deep"`` one that additionally attributes net ``tracemalloc``
    allocation to every phase span, or pass a registry to accumulate several
    runs into one.  The registry is threaded through every layer — phase
    spans and store/search/analysis hooks — and surfaced on
    :attr:`PipelineResult.metrics` with all the stats views above folded in.
    Registries the pipeline creates get trend-tuned histogram ladders when
    ``benchmarks/trend.jsonl`` carries enough quantile history per family,
    and are closed when the run ends, whether it returns or raises.
    Telemetry is purely observational: reports and sizes are bit-identical
    with it on or off.

    ``events`` additionally turns on the flight recorder (see
    :mod:`repro.obs.events`): ``True`` attaches a fresh
    :class:`~repro.obs.EventLog` (creating a registry for it to ride on if
    ``metrics`` was off), or pass a log to keep recording across runs.  The
    merge pass then emits one decision-level event per pair considered,
    verdict, commit and rollback — inspect with ``python -m
    repro.obs.explain``.  Same contract as metrics: reports are
    bit-identical with the recorder on or off.

    ``run_ledger`` (a :class:`~repro.obs.RunLedger`, an
    :class:`~repro.persist.ArtifactStore` or a path to root one at) makes
    the run finish by writing a durable :class:`~repro.obs.RunRecord` into
    the ledger — query with ``repro-runs`` (see ``docs/runs.md``).  A
    registry that already carries a ledger (via
    :func:`~repro.obs.attach_run_ledger`) records without this argument.
    """
    size_model = get_target(target)
    registry = _pipeline_registry(metrics, events, run_ledger)
    try:
        store = artifact_store
        if store is None and cache_dir is not None:
            store = ArtifactStore(cache_dir)
        manager = analysis_manager
        if manager is None and analysis_caching:
            persistent = PersistentAnalysisCache(store) \
                if store is not None else None
            manager = ModuleAnalysisManager(module, persistent=persistent)
        if registry is not None:
            if store is not None:
                store.attach_metrics(registry)
            if manager is not None:
                manager.attach_metrics(registry)
        baseline_seconds = baseline_compile(module, manager, registry)
        baseline_size = size_model.module_size(module)
        baseline_instructions = module.num_instructions()

        run_config = {"target": target, "phi_coalescing": phi_coalescing}

        if technique == "none":
            result = PipelineResult(
                benchmark, technique, threshold, baseline_size, baseline_size,
                baseline_instructions, baseline_instructions,
                baseline_seconds, 0.0,
                analysis_stats=manager.stats if manager else None,
                persist_stats=store.stats if store else None,
                metrics=registry)
            observe_pipeline_result(registry, result)
            record_pipeline_run(registry, result, mode="cold", config=run_config)
            return result

        options = make_pass_options(technique, threshold, size_model,
                                    phi_coalescing)
        merging_pass = FunctionMergingPass(options)

        peak_bytes = 0
        started = time.perf_counter()
        with maybe_span(registry, "merge"):
            if measure_memory:
                report, peak_bytes = measure_peak_memory(
                    merging_pass.run, module, manager, metrics=registry)
            else:
                report = merging_pass.run(module, analysis_manager=manager,
                                          metrics=registry)
        merge_seconds = time.perf_counter() - started

        final_size = size_model.module_size(module)
        result = PipelineResult(
            benchmark=benchmark,
            technique=technique,
            threshold=threshold,
            baseline_size=baseline_size,
            final_size=final_size,
            baseline_instructions=baseline_instructions,
            final_instructions=module.num_instructions(),
            baseline_compile_seconds=baseline_seconds,
            merge_seconds=merge_seconds,
            report=report,
            peak_merge_bytes=peak_bytes,
            analysis_stats=manager.stats if manager else None,
            persist_stats=store.stats if store else None,
            metrics=registry,
        )
        observe_pipeline_result(registry, result)
        record_pipeline_run(registry, result, mode="cold", config=run_config)
        return result
    finally:
        _close_owned(registry, metrics)


@dataclass
class IncrementalRun:
    """One delta's worth of incremental pipeline output."""

    #: The same shape a cold ``run_pipeline`` returns (report, sizes,
    #: timings) — ``merge_report_digest(run.result.report)`` is the parity
    #: bar against the cold pipeline.  ``baseline_compile_seconds`` is 0:
    #: the incremental path never re-runs the baseline stage, its input is
    #: already normalized.
    result: PipelineResult
    #: The (mutated) state to thread into the next delta.
    state: PipelineState
    #: The working module the pass merged: this delta's output, held by
    #: ``state.analysis_manager`` until the next run replaces it.
    module: Module
    #: The delta this run applied (detected or caller-supplied).
    delta: ModuleDelta
    #: What the delta cost and what the previous state paid for.
    stats: IncrementalStats

    @property
    def report(self) -> Optional[MergeReport]:
        return self.result.report


def run_pipeline_incremental(module: Module,
                             state: Optional[PipelineState] = None,
                             delta: Optional[ModuleDelta] = None,
                             *,
                             benchmark: str = "incremental",
                             technique: str = "salssa",
                             threshold: int = 1,
                             target: str = "x86_64",
                             phi_coalescing: bool = True,
                             cache_dir: Optional[str] = None,
                             artifact_store: Optional[ArtifactStore] = None,
                             metrics: Union[None, bool, str, MetricsRegistry]
                             = None,
                             events: Union[None, bool, EventLog]
                             = None,
                             run_ledger=None) -> IncrementalRun:
    """Re-run the merge pipeline for ``module``, reusing ``state``.

    The incremental counterpart of :func:`run_pipeline` (see
    :mod:`repro.incremental` and ``docs/incremental.md``): the final report
    is **bit-identical** to a cold ``run_pipeline`` over the same module,
    but only pairs with at least one *dirty* endpoint are re-scored, only
    merges the attempt cache cannot splice are re-generated, and
    fingerprints are reused for every clean function — near-O(|delta|) work
    per call for live modules.

    ``state`` is ``None`` on the first call: with a ``cache_dir`` (or
    ``artifact_store``) the pipeline then tries to *load* the previous
    process's state snapshot and warm-start straight into incremental mode;
    otherwise it bootstraps cold (every pair is a cache miss — the same
    work a cold run does, invested once).  ``delta`` is detected via
    ``content_digest`` diffs when not supplied.  The input module is never
    mutated — each run replays over a working copy assembled from the
    state's pristine functions, so the caller keeps editing the live module
    between deltas.

    ``metrics`` and ``events`` match :func:`run_pipeline`: the telemetry
    registry and the flight recorder, both purely observational.  Replay
    decisions (cache-hit verdicts, splice vs deterministic re-merge with the
    ``named_key`` guard, state-snapshot provenance) land in the event log
    with their reason codes.

    ``run_ledger`` matches :func:`run_pipeline`: the durable run ledger
    (records land with ``mode="incremental"`` plus the delta's
    :class:`~repro.incremental.IncrementalStats`).  So does the registry's
    lifetime: one the pipeline created is closed however the run ends.
    """
    size_model = get_target(target)
    registry = _pipeline_registry(metrics, events, run_ledger)
    events_log = registry.events if registry is not None else None
    try:
        store = artifact_store
        if store is None and cache_dir is not None:
            store = ArtifactStore(cache_dir)
        config = IncrementalConfig(
            benchmark=benchmark, technique=technique, threshold=threshold,
            target=target, phi_coalescing=phi_coalescing)
        with maybe_span(registry, "incremental.delta"):
            loaded_from_store = False
            if state is None and store is not None:
                state = load_state(store, config)
                loaded_from_store = state is not None
            if events_log is not None:
                events_log.emit(
                    "state_load", benchmark=benchmark,
                    provenance="artifact_store" if loaded_from_store
                    else ("live_state" if state is not None
                          else "cold_bootstrap"))
            if state is None:
                state = PipelineState(config)
            elif state.config.key() != config.key():
                raise ValueError(
                    "run_pipeline_incremental called with a state built for "
                    "a different configuration; start a new state (or pass "
                    "matching technique/threshold/target arguments)")
            if registry is not None and store is not None:
                store.attach_metrics(registry)
            with maybe_span(registry, "incremental.apply_delta"):
                if delta is None:
                    delta = state.detect_delta(module)
                state.apply_delta(module, delta)
            with maybe_span(registry, "incremental.assemble"):
                working, precomputed = state.assemble(module)
            persistent = PersistentAnalysisCache(store) \
                if store is not None else None
            manager = ModuleAnalysisManager(working, persistent=persistent)
            if registry is not None:
                manager.attach_metrics(registry)
            baseline_size = size_model.module_size(working)
            baseline_instructions = working.num_instructions()
            options = make_pass_options(technique, threshold, size_model,
                                        phi_coalescing)
            merging_pass = FunctionMergingPass(options)
            state.cache.begin_run()
            evicted_before = state.cache.evicted
            started = time.perf_counter()
            with maybe_span(registry, "incremental.merge"):
                report = merging_pass.run(
                    working, analysis_manager=manager,
                    metrics=registry, precomputed=precomputed,
                    attempt_cache=state.cache)
            merge_seconds = time.perf_counter() - started
            result = PipelineResult(
                benchmark=benchmark,
                technique=technique,
                threshold=threshold,
                baseline_size=baseline_size,
                final_size=size_model.module_size(working),
                baseline_instructions=baseline_instructions,
                final_instructions=working.num_instructions(),
                baseline_compile_seconds=0.0,
                merge_seconds=merge_seconds,
                report=report,
                analysis_stats=manager.stats,
                persist_stats=store.stats if store is not None else None,
                metrics=registry,
            )
            stats = IncrementalStats(
                delta_index=state.deltas_applied - 1,
                functions_added=len(delta.added),
                functions_changed=len(delta.changed),
                functions_removed=len(delta.removed),
                pairs_reused=state.cache.run_hits,
                pairs_rescored=state.cache.run_misses,
                merges_spliced=state.cache.merges_spliced,
                merges_recomputed=state.cache.merges_recomputed,
                attempts=report.attempts,
                cache_evicted=state.cache.evicted - evicted_before,
                wall_seconds=merge_seconds,
            )
            state.report = report
            state.analysis_manager = manager
            if store is not None:
                with maybe_span(registry, "incremental.snapshot"):
                    save_state(store, state)
            observe_pipeline_result(registry, result)
            observe_incremental_stats(registry, stats)
            record_pipeline_run(
                registry, result, mode="incremental",
                config={"target": target, "phi_coalescing": phi_coalescing},
                incremental=vars(stats))
    finally:
        _close_owned(registry, metrics)
    return IncrementalRun(result=result, state=state, module=working,
                          delta=delta, stats=stats)
