"""The module-level function-merging pass.

This is the driver both techniques share (paper §5.1): functions are ranked by
a fingerprint-based similarity search, the ``t`` most similar candidates are
attempted for each function (the *exploration threshold*), each attempt is
evaluated with the shared profitability cost model, and only the best
profitable merge per function is committed.  Merged functions become
candidates for further merging, and the original entry points are preserved as
thin thunks that forward to the merged function with the right function
identifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..analysis.manager import ModuleAnalysisManager
from ..analysis.size_model import SizeModel, X86_64
from ..obs import as_registry, maybe_span
from ..obs.events import (
    REASON_BELOW_MIN_SIZE,
    REASON_CANDIDATE_CONSUMED,
    REASON_COST_MODEL,
    REASON_MERGE_ERROR,
    REASON_NAMED_KEY_MISMATCH,
    REASON_NO_RECORDED_BODY,
    REASON_OUTRANKED,
    REASON_PROFITABLE,
    REASON_TYPE_MISMATCH,
)
from ..search import SearchStats, make_index
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import CallInst, ReturnInst
from ..ir.module import Module
from ..ir.types import VoidType
from ..ir.values import Constant
from ..ir.builder import IRBuilder
from ..ir.verifier import verify_function
from ..ir.parser import parse_named_function
from ..ir.printer import print_function
from .cost_model import CostModel, MergeDecision
from .fmsa import FMSAMerger, FMSAOptions
from .salssa.codegen import MergedFunction, MergeError, MergeStats, \
    SalSSAMerger, SalSSAOptions


class _CachedAttempt:
    """A cache-served (ghost) attempt: what the ranking loop needs, no IR.

    Quacks like :class:`MergedFunction` where the loop looks (``stats`` for
    the attempt timers, ``function`` — ``None``, marking nothing resident to
    discard); a ghost that wins its round is materialized at commit time.
    """

    __slots__ = ("first", "second", "name", "entry", "stats", "function")

    def __init__(self, first: "Function", second: "Function", name: str,
                 entry) -> None:
        self.first = first
        self.second = second
        self.name = name
        self.entry = entry
        self.function = None
        self.stats = MergeStats(
            matched_instructions=entry.matched_instructions,
            alignment_dp_cells=entry.alignment_dp_cells,
            alignment_seconds=entry.alignment_seconds,
            codegen_seconds=entry.codegen_seconds)


@dataclass
class MergePassOptions:
    """Configuration of one function-merging run."""

    technique: str = "salssa"  # "salssa" or "fmsa"
    exploration_threshold: int = 1
    size_model: SizeModel = X86_64
    cost_model: Optional[CostModel] = None
    salssa: SalSSAOptions = field(default_factory=SalSSAOptions)
    fmsa: FMSAOptions = field(default_factory=FMSAOptions)
    #: Skip functions smaller than this many IR instructions.
    min_function_size: int = 3
    #: Allow merged functions to be merged again with further candidates.
    allow_remerge: bool = True
    #: Verify every committed merged function (slower; used by tests).
    verify: bool = False
    #: Model the FMSA residue: demote+promote every function even if unmerged.
    model_fmsa_residue: bool = True

    def resolved_cost_model(self) -> CostModel:
        return self.cost_model or CostModel(size_model=self.size_model)


@dataclass
class MergeRecord:
    """One attempted (and possibly committed) merge operation."""

    first: str
    second: str
    merged: str
    decision: MergeDecision
    committed: bool
    matched_instructions: int
    alignment_seconds: float
    codegen_seconds: float
    alignment_dp_cells: int


@dataclass
class MergeReport:
    """The outcome of running the merging pass over a module."""

    technique: str
    exploration_threshold: int
    search_stats: Optional[SearchStats] = None
    size_before: int = 0
    size_after: int = 0
    instructions_before: int = 0
    instructions_after: int = 0
    attempts: int = 0
    profitable_merges: int = 0
    records: List[MergeRecord] = field(default_factory=list)
    alignment_seconds: float = 0.0
    codegen_seconds: float = 0.0
    total_seconds: float = 0.0
    peak_alignment_cells: int = 0
    total_alignment_cells: int = 0

    @property
    def reduction_percent(self) -> float:
        """Object-size reduction over the pre-merging module, in percent."""
        if self.size_before == 0:
            return 0.0
        return 100.0 * (self.size_before - self.size_after) / self.size_before

    @property
    def committed_records(self) -> List[MergeRecord]:
        return [r for r in self.records if r.committed]


class FunctionMergingPass:
    """Runs FMSA- or SalSSA-based function merging over a whole module."""

    def __init__(self, options: Optional[MergePassOptions] = None) -> None:
        self.options = options or MergePassOptions()
        if self.options.technique not in ("salssa", "fmsa"):
            raise ValueError(f"unknown technique {self.options.technique!r}")

    # ------------------------------------------------------------ interface
    def run(self, module: Module,
            analysis_manager: Optional[ModuleAnalysisManager] = None,
            metrics=None, precomputed=None,
            attempt_cache=None) -> MergeReport:
        """Run the pass over ``module``.

        ``analysis_manager`` is threaded through the candidate index (shared
        fingerprints), the cost model (function sizes cached across the
        candidate loop), the mergers' SSA repair and the optional verifier.
        Without it, every consumer computes its analyses from scratch — the
        reported merges are bit-identical either way, only the work differs.

        ``metrics`` (None, True or a :class:`repro.obs.MetricsRegistry`)
        turns on telemetry: the pass records ``merge.*`` phase spans and
        times every attempt's alignment and codegen.  Purely observational —
        the report is bit-identical with telemetry on or off.

        The last two parameters are the incremental pipeline's dirty-set-
        aware entry point (see :mod:`repro.incremental`); both default to the
        batch behaviour.  ``precomputed`` maps functions to already derived
        fingerprints.  ``attempt_cache`` memoizes attempt outcomes by
        content-digest pair: cached pairs replay as *ghost* attempts (no
        alignment, no codegen, no trial IR), and a ghost that wins its
        ranking round is materialized at commit time — spliced from the
        cached merged body when one exists, deterministically re-merged
        otherwise.  Both are work-savers only: reports stay bit-identical
        with or without them.
        """
        options = self.options
        manager = analysis_manager
        registry = as_registry(metrics)
        # The flight recorder, when one is attached to the registry (see
        # repro.obs.events.attach_events): decision-level events only — every
        # emission site is guarded, and nothing below reads the log back.
        events = registry.events if registry is not None else None
        alignment_timer = codegen_timer = None
        if registry is not None:
            alignment_timer = registry.timer(
                "repro_merge_alignment_seconds",
                help="Wall-clock of per-attempt sequence alignment.",
                technique=options.technique)
            codegen_timer = registry.timer(
                "repro_merge_codegen_seconds",
                help="Wall-clock of per-attempt merged-body generation.",
                technique=options.technique)
        # One cost model for the whole run; resolving it per attempt built a
        # fresh instance in the hot candidate loop.
        cost_model = options.resolved_cost_model()
        report = MergeReport(options.technique, options.exploration_threshold)
        report.size_before = options.size_model.module_size(module)
        report.instructions_before = module.num_instructions()
        start_time = time.perf_counter()

        merger = self._make_merger(module, manager)
        original_sizes: Dict[Function, int] = {
            f: cost_model.function_size(f, manager)
            for f in module.defined_functions()}

        with maybe_span(registry, "merge.index_build"):
            index = make_index(module, min_size=options.min_function_size,
                               analysis_manager=manager,
                               precomputed=precomputed)
        if registry is not None:
            index.attach_metrics(registry)
        report.search_stats = index.stats
        consumed: Set[Function] = set()
        worklist = index.functions_by_size()
        if events is not None:
            indexed = set(worklist)
            for function in module.defined_functions():
                if function not in indexed:
                    events.emit("function_skipped", function=function.name,
                                instructions=function.num_instructions(),
                                reason=REASON_BELOW_MIN_SIZE)

        def discard(merged) -> None:
            if merged.function is None:  # ghost attempt: nothing resident
                return
            module.remove_function(merged.function)
            merged.function.drop_all_references()
            if manager is not None:
                manager.forget(merged.function)

        with maybe_span(registry, "merge.rank"):
            position = 0
            while position < len(worklist):
                function = worklist[position]
                position += 1
                if function in consumed or function.parent is not module:
                    continue
                candidates = index.candidates_for(
                    function, options.exploration_threshold, exclude=consumed)
                best: Optional[MergedFunction] = None
                best_decision: Optional[MergeDecision] = None
                for rank, candidate in enumerate(candidates):
                    other = candidate.function
                    if events is not None:
                        events.emit("pair_considered", function=function.name,
                                    candidate=other.name, rank=rank,
                                    distance=candidate.distance)
                    if other in consumed or other.parent is not module:
                        if events is not None:
                            events.emit("pair_skipped",
                                        function=function.name,
                                        candidate=other.name,
                                        reason=REASON_CANDIDATE_CONSUMED)
                        continue
                    attempt = self._attempt(merger, module, function, other,
                                            report, cost_model, manager,
                                            attempt_cache, events)
                    if attempt is None:
                        continue
                    merged, decision = attempt
                    if alignment_timer is not None:
                        alignment_timer.observe(merged.stats.alignment_seconds)
                        codegen_timer.observe(merged.stats.codegen_seconds)
                    better = best_decision is None \
                        or decision.benefit > best_decision.benefit
                    if better:
                        if best is not None:
                            if events is not None and best_decision.profitable:
                                events.emit("outranked",
                                            function=function.name,
                                            candidate=best.second.name,
                                            by=other.name,
                                            reason=REASON_OUTRANKED)
                            discard(best)
                        best, best_decision = merged, decision
                    else:
                        if events is not None and decision.profitable:
                            events.emit("outranked", function=function.name,
                                        candidate=other.name,
                                        by=best.second.name,
                                        reason=REASON_OUTRANKED)
                        discard(merged)

                if best is not None and best_decision is not None \
                        and best_decision.profitable:
                    if best.function is None:  # winning ghost: make it real
                        best = self._materialize(best, module, merger,
                                                 attempt_cache, events)
                    if attempt_cache is not None:
                        # Before thunking: the pair key is the originals'
                        # pre-commit digests (memoized, so this is cheap).
                        attempt_cache.note_commit(best)
                    self._commit(module, best, report, manager)
                    if events is not None:
                        events.emit("commit", first=best.first.name,
                                    second=best.second.name,
                                    merged=best.function.name,
                                    benefit=best_decision.benefit)
                    consumed.add(best.first)
                    consumed.add(best.second)
                    index.remove(best.first)
                    index.remove(best.second)
                    original_sizes[best.function] = cost_model.function_size(
                        best.function, manager)
                    if options.allow_remerge:
                        if attempt_cache is not None:
                            attempt_cache.prime_index_artifacts(
                                index, best.function)
                        index.update(best.function)
                        if attempt_cache is not None:
                            attempt_cache.capture_index_artifacts(
                                index, best.function)
                        worklist.append(best.function)
                    report.profitable_merges += 1
                elif best is not None:
                    if events is not None:
                        # The trial merged body is rolled back out of the
                        # module: the round's best attempt was unprofitable.
                        events.emit("rollback", function=function.name,
                                    candidate=best.second.name,
                                    reason=REASON_COST_MODEL)
                    discard(best)

        if options.technique == "fmsa" and options.model_fmsa_residue:
            with maybe_span(registry, "merge.fmsa_residue"):
                self._apply_fmsa_residue(module, consumed, manager)

        report.size_after = options.size_model.module_size(module)
        report.instructions_after = module.num_instructions()
        report.total_seconds = time.perf_counter() - start_time
        self._original_sizes = original_sizes
        return report

    # ------------------------------------------------------------ internals
    def _make_merger(self, module: Module,
                     manager: Optional[ModuleAnalysisManager] = None):
        if self.options.technique == "fmsa":
            return FMSAMerger(module, self.options.fmsa, analysis_manager=manager)
        return SalSSAMerger(module, self.options.salssa, analysis_manager=manager)

    def _merged_name(self, module: Module, function: Function,
                     other: Function) -> str:
        """The name the merger would give this pair's merged function.

        Mirrors the mergers' naming exactly (SalSSA appends ``.merged``,
        FMSA ``.fmsa``), so a ghost attempt records the same name a real
        merge would have — two distinct pairs can never share a prefix
        (``first.second.suffix`` equality forces equal pair names), so the
        uniquing outcome only depends on module state, which replay
        reproduces.
        """
        suffix = "fmsa" if self.options.technique == "fmsa" else "merged"
        return module.unique_function_name(
            f"{function.name}.{other.name}.{suffix}")

    def _attempt(self, merger, module: Module, function: Function, other: Function,
                 report: MergeReport, cost_model: Optional[CostModel] = None,
                 manager: Optional[ModuleAnalysisManager] = None,
                 attempt_cache=None, events=None):
        if cost_model is None:
            cost_model = self.options.resolved_cost_model()
        if function.return_type != other.return_type:
            if events is not None:
                events.emit("verdict", function=function.name,
                            candidate=other.name, profitable=False,
                            reason=REASON_TYPE_MISMATCH,
                            provenance="pre_alignment")
            return None
        key = None
        if attempt_cache is not None:
            key = (function.content_digest(), other.content_digest())
            entry = attempt_cache.lookup(key)
            if entry is not None:
                report.attempts += 1
                if entry.failed:
                    if events is not None:
                        events.emit("verdict", function=function.name,
                                    candidate=other.name, profitable=False,
                                    reason=REASON_MERGE_ERROR,
                                    provenance="attempt_cache")
                    return None
                report.alignment_seconds += entry.alignment_seconds
                report.codegen_seconds += entry.codegen_seconds
                report.total_alignment_cells += entry.alignment_dp_cells
                report.peak_alignment_cells = max(report.peak_alignment_cells,
                                                  entry.alignment_dp_cells)
                decision = MergeDecision(
                    profitable=entry.profitable,
                    original_size=entry.original_size,
                    merged_size=entry.merged_size,
                    overhead=entry.overhead)
                name = self._merged_name(module, function, other)
                report.records.append(MergeRecord(
                    first=function.name, second=other.name, merged=name,
                    decision=decision, committed=False,
                    matched_instructions=entry.matched_instructions,
                    alignment_seconds=entry.alignment_seconds,
                    codegen_seconds=entry.codegen_seconds,
                    alignment_dp_cells=entry.alignment_dp_cells))
                if events is not None:
                    events.emit(
                        "verdict", function=function.name,
                        candidate=other.name, merged=name,
                        profitable=entry.profitable,
                        reason=REASON_PROFITABLE if entry.profitable
                        else REASON_COST_MODEL,
                        provenance="attempt_cache",
                        original_size=entry.original_size,
                        merged_size=entry.merged_size,
                        overhead=entry.overhead,
                        benefit=decision.benefit,
                        matched_instructions=entry.matched_instructions)
                return _CachedAttempt(function, other, name, entry), decision
        report.attempts += 1
        try:
            merged = merger.merge(function, other)
        except MergeError:
            if attempt_cache is not None:
                attempt_cache.record_failure(key)
            if events is not None:
                events.emit("verdict", function=function.name,
                            candidate=other.name, profitable=False,
                            reason=REASON_MERGE_ERROR,
                            provenance="cold_compute")
            return None
        stats = merged.stats
        report.alignment_seconds += stats.alignment_seconds
        report.codegen_seconds += stats.codegen_seconds
        report.total_alignment_cells += stats.alignment_dp_cells
        report.peak_alignment_cells = max(report.peak_alignment_cells,
                                          stats.alignment_dp_cells)
        if events is not None:
            events.emit("alignment_scored", function=function.name,
                        candidate=other.name,
                        matched_instructions=stats.matched_instructions,
                        dp_cells=stats.alignment_dp_cells,
                        alignment_seconds=stats.alignment_seconds,
                        codegen_seconds=stats.codegen_seconds)
        size_a = cost_model.function_size(function, manager)
        size_b = cost_model.function_size(other, manager)
        # The trial merged function is sized *without* the manager: it is
        # evaluated exactly once and usually discarded, so caching buys
        # nothing.  Sizes are deterministic, so the decision is identical
        # either way; committed merged functions are re-sized through the
        # manager in run(), where the result is actually reused.
        decision = cost_model.evaluate(function, other, merged.function,
                                       size_a=size_a, size_b=size_b)
        report.records.append(MergeRecord(
            first=function.name, second=other.name, merged=merged.function.name,
            decision=decision, committed=False,
            matched_instructions=stats.matched_instructions,
            alignment_seconds=stats.alignment_seconds,
            codegen_seconds=stats.codegen_seconds,
            alignment_dp_cells=stats.alignment_dp_cells))
        if events is not None:
            events.emit("verdict", function=function.name,
                        candidate=other.name, merged=merged.function.name,
                        profitable=decision.profitable,
                        reason=REASON_PROFITABLE if decision.profitable
                        else REASON_COST_MODEL,
                        provenance="cold_compute",
                        original_size=decision.original_size,
                        merged_size=decision.merged_size,
                        overhead=decision.overhead,
                        benefit=decision.benefit,
                        matched_instructions=stats.matched_instructions)
        if attempt_cache is not None:
            attempt_cache.record(key, decision, stats)
        return merged, decision

    def _materialize(self, ghost: "_CachedAttempt", module: Module,
                     merger, attempt_cache, events=None) -> MergedFunction:
        """Turn a winning ghost attempt into a live :class:`MergedFunction`.

        With a cached merged body the function is *spliced*: parsed straight
        into ``module`` from its recorded *named* text (which refers to
        callees and globals by name, so parsing against the working module
        rebinds them to the right objects, and preserves the local value
        names later name-tie-breaking passes see).  Without one — the pair
        was evaluated but never committed before — the merge is re-run;
        merging is deterministic, so the result equals what a cold run
        would have committed, and the body is captured for next time.
        """
        entry = ghost.entry
        if attempt_cache.splice_valid(entry, ghost.first, ghost.second):
            if events is not None:
                events.emit("materialize", first=ghost.first.name,
                            second=ghost.second.name, merged=ghost.name,
                            mode="splice", provenance="attempt_cache")
            function = parse_named_function(entry.merged_text, module=module)
            if function.name != ghost.name:
                # Content-identical input pairs share one cache entry (the
                # key is digests, not names), so the recorded text can carry
                # the name of whichever pair committed first.  splice_valid
                # proved the inputs name-identical, so only the function
                # name itself differs — re-register under the replayed name.
                module.remove_function(function)
                function.name = ghost.name
                module.add_function(function)
            attempt_cache.merges_spliced += 1
            return MergedFunction(function, ghost.first, ghost.second,
                                  entry.param_map or {}, stats=ghost.stats)
        if events is not None:
            events.emit("materialize", first=ghost.first.name,
                        second=ghost.second.name, merged=ghost.name,
                        mode="recompute",
                        reason=REASON_NO_RECORDED_BODY
                        if entry.merged_text is None
                        else REASON_NAMED_KEY_MISMATCH)
        merged = merger.merge(ghost.first, ghost.second)
        attempt_cache.merges_recomputed += 1
        if merged.function.name != ghost.name:
            raise MergeError(
                f"replayed merge named {merged.function.name!r}, expected "
                f"{ghost.name!r} — incremental replay diverged")
        if entry.merged_text is None:
            entry.merged_text = print_function(merged.function)
            entry.named_key = attempt_cache.pair_named_key(
                merged.first, merged.second)
            entry.param_map = merged.param_map
        return merged

    def _commit(self, module: Module, merged: MergedFunction, report: MergeReport,
                manager: Optional[ModuleAnalysisManager] = None) -> None:
        if self.options.verify:
            verify_function(merged.function, manager=manager)
        replace_with_thunk(merged, 0, merged.first)
        replace_with_thunk(merged, 1, merged.second)
        for record in reversed(report.records):
            if record.merged == merged.function.name:
                record.committed = True
                break

    def _apply_fmsa_residue(self, module: Module, consumed: Set[Function],
                            manager: Optional[ModuleAnalysisManager] = None) -> None:
        """FMSA demotes every function before merging; functions that end up
        unmerged still go through the demote/promote round trip (the residue)."""
        from ..transforms.mem2reg import promote_allocas
        from ..transforms.reg2mem import demote_function
        from ..transforms.simplify import simplify_function

        for function in module.defined_functions():
            if function in consumed:
                continue
            demote_function(function, manager)
            promote_allocas(function, manager)
            simplify_function(function, manager=manager)


def replace_with_thunk(merged: MergedFunction, which: int, original: Function) -> None:
    """Replace ``original``'s body with a thunk that tail-calls the merged function.

    The original function object (and therefore every existing call site and
    address-taken use) stays valid; only its body is rewritten, exactly like
    the LLVM implementation keeps the original symbol as a forwarding stub.
    """
    for block in list(original.blocks):
        block.erase_from_parent()
    entry = original.add_block(BasicBlock("entry"))
    builder = IRBuilder(entry)
    args = merged.call_arguments(which, list(original.args))
    call = builder.call(merged.function, args, name="merged.result"
                        if not isinstance(original.return_type, VoidType) else "")
    if isinstance(original.return_type, VoidType):
        builder.ret_void()
    else:
        builder.ret(call)
