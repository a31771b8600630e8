"""Experiment runners: one function per table/figure of the paper's evaluation.

Every runner is deterministic (workloads are seeded) and returns a small
result dataclass with per-benchmark rows plus the aggregate the paper quotes
(usually a geometric mean).  The benchmark harness under ``benchmarks/`` calls
these runners and prints the same rows the paper's figures show.

To keep CPython runtimes reasonable the default arguments evaluate a subset of
benchmarks and thresholds; pass ``benchmarks=None``/``thresholds=(1, 5, 10)``
explicitly for the full sweep (see EXPERIMENTS.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.counters import track_constructions
from ..analysis.manager import AnalysisStats, ModuleAnalysisManager
from ..analysis.size_model import get_target
from ..ir.interpreter import run_function
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..merge.pass_manager import FunctionMergingPass, MergeReport
from ..search import make_index
from ..transforms.mem2reg import promote_module
from ..transforms.reg2mem import demote_function, demote_module
from ..transforms.simplify import simplify_module
from ..workloads.generator import (
    FamilySpec,
    ProgramSpec,
    generate_program,
    generate_program_in_batches,
)
from ..workloads.mibench_like import MIBENCH, MiBenchSpec
from ..workloads.spec_like import BenchmarkSpec, get_suite
from .metrics import geometric_mean, measure_peak_memory
from .pipeline import PipelineResult, baseline_compile, make_pass_options, run_pipeline

#: Default subset used by the quick benchmarks (a representative mix of C and
#: C++-like programs, including the template-heavy outlier).
DEFAULT_SPEC_SUBSET: Tuple[str, ...] = (
    "401.bzip2", "429.mcf", "433.milc", "444.namd", "447.dealII",
    "456.hmmer", "462.libquantum", "470.lbm", "471.omnetpp", "482.sphinx3",
)
DEFAULT_MIBENCH_SUBSET: Tuple[str, ...] = (
    "CRC32", "adpcm_c", "bitcount", "cjpeg", "dijkstra", "djpeg", "gsm",
    "qsort", "sha", "stringsearch", "susan", "typeset",
)


def _select_benchmarks(suite: Sequence, names: Optional[Iterable[str]]):
    if names is None:
        return list(suite)
    wanted = set(names)
    return [spec for spec in suite if spec.name in wanted]


# ---------------------------------------------------------------------------
# Figure 5 — function growth under register demotion
# ---------------------------------------------------------------------------

@dataclass
class Figure5Row:
    benchmark: str
    size_before: int
    size_after: int

    @property
    def normalized(self) -> float:
        return self.size_after / self.size_before if self.size_before else 1.0


@dataclass
class Figure5Result:
    rows: List[Figure5Row] = field(default_factory=list)

    @property
    def geomean_growth(self) -> float:
        return geometric_mean(row.normalized for row in self.rows)


def figure5_reg2mem_growth(suite: str = "spec2006",
                           benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                           ) -> Figure5Result:
    """Average normalised function size before/after register demotion (Fig. 5)."""
    result = Figure5Result()
    for spec in _select_benchmarks(get_suite(suite), benchmarks):
        module = spec.build()
        simplify_module(module)
        before = module.num_instructions()
        for function in module.defined_functions():
            demote_function(function)
        after = module.num_instructions()
        result.rows.append(Figure5Row(spec.name, before, after))
    return result


# ---------------------------------------------------------------------------
# Figures 17 / 18 — code size reduction over the LTO baseline
# ---------------------------------------------------------------------------

@dataclass
class ReductionRow:
    benchmark: str
    technique: str
    threshold: int
    reduction_percent: float
    profitable_merges: int
    attempts: int


@dataclass
class ReductionResult:
    suite: str
    target: str
    rows: List[ReductionRow] = field(default_factory=list)

    def reductions(self, technique: str, threshold: int) -> List[float]:
        return [row.reduction_percent for row in self.rows
                if row.technique == technique and row.threshold == threshold]

    def geomean(self, technique: str, threshold: int) -> float:
        values = [max(0.0, value) / 100.0 + 1.0
                  for value in self.reductions(technique, threshold)]
        return (geometric_mean(values) - 1.0) * 100.0 if values else 0.0

    def summary(self) -> Dict[Tuple[str, int], float]:
        keys = {(row.technique, row.threshold) for row in self.rows}
        return {key: self.geomean(*key) for key in sorted(keys)}


def _reduction_experiment(suite_specs, suite_name: str, target: str,
                          techniques: Sequence[str], thresholds: Sequence[int],
                          benchmarks: Optional[Iterable[str]]
                          ) -> ReductionResult:
    result = ReductionResult(suite_name, target)
    for spec in _select_benchmarks(suite_specs, benchmarks):
        for technique in techniques:
            for threshold in thresholds:
                module = spec.build()
                run = run_pipeline(module, spec.name, technique, threshold, target)
                report = run.report
                result.rows.append(ReductionRow(
                    spec.name, technique, threshold, run.reduction_percent,
                    report.profitable_merges if report else 0,
                    report.attempts if report else 0))
    return result


def figure17_spec_reduction(suite: str = "spec2006",
                            techniques: Sequence[str] = ("fmsa", "salssa"),
                            thresholds: Sequence[int] = (1,),
                            benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                            ) -> ReductionResult:
    """Linked-object size reduction over LTO on the SPEC-like suites (Fig. 17)."""
    return _reduction_experiment(get_suite(suite), suite, "x86_64",
                                 techniques, thresholds, benchmarks)


def figure18_mibench_reduction(techniques: Sequence[str] = ("fmsa", "salssa"),
                               thresholds: Sequence[int] = (1,),
                               benchmarks: Optional[Iterable[str]] = DEFAULT_MIBENCH_SUBSET
                               ) -> ReductionResult:
    """Linked-object size reduction on the MiBench-like suite, ARM-Thumb model (Fig. 18)."""
    return _reduction_experiment(MIBENCH, "mibench", "arm_thumb",
                                 techniques, thresholds, benchmarks)


# ---------------------------------------------------------------------------
# Table 1 — MiBench population and merge counts
# ---------------------------------------------------------------------------

@dataclass
class Table1Row:
    benchmark: str
    num_functions: int
    min_size: int
    avg_size: float
    max_size: int
    fmsa_merges: int
    salssa_merges: int


@dataclass
class Table1Result:
    rows: List[Table1Row] = field(default_factory=list)

    @property
    def total_fmsa(self) -> int:
        return sum(row.fmsa_merges for row in self.rows)

    @property
    def total_salssa(self) -> int:
        return sum(row.salssa_merges for row in self.rows)


def table1_mibench_merges(benchmarks: Optional[Iterable[str]] = DEFAULT_MIBENCH_SUBSET
                          ) -> Table1Result:
    """Function counts/sizes and merge operations per MiBench program (Table 1)."""
    result = Table1Result()
    for spec in _select_benchmarks(MIBENCH, benchmarks):
        merges: Dict[str, int] = {}
        sizes: List[int] = []
        for technique in ("fmsa", "salssa"):
            module = spec.build()
            simplify_module(module)
            if technique == "fmsa":
                sizes = [f.num_instructions() for f in module.defined_functions()]
            options = make_pass_options(technique, 1, get_target("arm_thumb"))
            report = FunctionMergingPass(options).run(module)
            merges[technique] = report.profitable_merges
        result.rows.append(Table1Row(
            spec.name, len(sizes), min(sizes) if sizes else 0,
            sum(sizes) / len(sizes) if sizes else 0.0, max(sizes) if sizes else 0,
            merges["fmsa"], merges["salssa"]))
    return result


# ---------------------------------------------------------------------------
# Figure 19 — per-merge contribution breakdown (djpeg)
# ---------------------------------------------------------------------------

@dataclass
class Figure19Result:
    benchmark: str
    baseline_size: int
    contributions_percent: List[float] = field(default_factory=list)

    @property
    def total_percent(self) -> float:
        return sum(self.contributions_percent)


def figure19_merge_breakdown(benchmark: str = "djpeg") -> Figure19Result:
    """Per-merge-operation contribution to the final size on djpeg (Fig. 19)."""
    spec = next(s for s in MIBENCH if s.name == benchmark)
    module = spec.build()
    simplify_module(module)
    size_model = get_target("arm_thumb")
    baseline = size_model.module_size(module)
    options = make_pass_options("salssa", 1, size_model)
    report = FunctionMergingPass(options).run(module)
    result = Figure19Result(benchmark, baseline)
    for record in report.committed_records:
        # Positive = this merge shrank the object, negative = it grew it.
        result.contributions_percent.append(100.0 * record.decision.benefit / baseline)
    return result


# ---------------------------------------------------------------------------
# Figure 20 — phi-node coalescing ablation
# ---------------------------------------------------------------------------

@dataclass
class Figure20Row:
    benchmark: str
    fmsa: float
    salssa_nopc: float
    salssa: float


@dataclass
class Figure20Result:
    rows: List[Figure20Row] = field(default_factory=list)

    def geomeans(self) -> Dict[str, float]:
        def agg(values: List[float]) -> float:
            return (geometric_mean([max(0.0, v) / 100.0 + 1.0 for v in values]) - 1.0) * 100.0
        return {
            "fmsa": agg([r.fmsa for r in self.rows]),
            "salssa_nopc": agg([r.salssa_nopc for r in self.rows]),
            "salssa": agg([r.salssa for r in self.rows]),
        }


def figure20_phi_coalescing(suite: str = "spec2006",
                            benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                            ) -> Figure20Result:
    """Impact of phi-node coalescing: FMSA vs SalSSA-NoPC vs SalSSA (Fig. 20)."""
    result = Figure20Result()
    for spec in _select_benchmarks(get_suite(suite), benchmarks):
        reductions: Dict[str, float] = {}
        for key, technique, coalescing in (("fmsa", "fmsa", True),
                                           ("salssa_nopc", "salssa", False),
                                           ("salssa", "salssa", True)):
            module = spec.build()
            run = run_pipeline(module, spec.name, technique, 1, "x86_64",
                               phi_coalescing=coalescing)
            reductions[key] = run.reduction_percent
        result.rows.append(Figure20Row(spec.name, reductions["fmsa"],
                                       reductions["salssa_nopc"], reductions["salssa"]))
    return result


# ---------------------------------------------------------------------------
# Figure 21 — number of profitable merge operations
# ---------------------------------------------------------------------------

@dataclass
class Figure21Row:
    benchmark: str
    fmsa_merges: int
    salssa_merges: int


@dataclass
class Figure21Result:
    rows: List[Figure21Row] = field(default_factory=list)

    @property
    def total_fmsa(self) -> int:
        return sum(r.fmsa_merges for r in self.rows)

    @property
    def total_salssa(self) -> int:
        return sum(r.salssa_merges for r in self.rows)


def figure21_profitable_merges(suite: str = "spec2006",
                               benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                               ) -> Figure21Result:
    """Total profitable merge operations, FMSA vs SalSSA at t=1 (Fig. 21)."""
    result = Figure21Result()
    for spec in _select_benchmarks(get_suite(suite), benchmarks):
        merges: Dict[str, int] = {}
        for technique in ("fmsa", "salssa"):
            module = spec.build()
            run = run_pipeline(module, spec.name, technique, 1, "x86_64")
            merges[technique] = run.report.profitable_merges if run.report else 0
        result.rows.append(Figure21Row(spec.name, merges["fmsa"], merges["salssa"]))
    return result


# ---------------------------------------------------------------------------
# Figure 22 — peak memory usage of the merging pass
# ---------------------------------------------------------------------------

@dataclass
class Figure22Row:
    benchmark: str
    fmsa_bytes: int
    salssa_bytes: int
    fmsa_dp_cells: int
    salssa_dp_cells: int


@dataclass
class Figure22Result:
    rows: List[Figure22Row] = field(default_factory=list)

    @property
    def mean_ratio(self) -> float:
        ratios = [row.fmsa_bytes / row.salssa_bytes for row in self.rows
                  if row.salssa_bytes > 0]
        return geometric_mean(ratios) if ratios else 0.0


def figure22_memory_usage(suite: str = "spec2006",
                          benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                          ) -> Figure22Result:
    """Peak memory while running the merging pass, FMSA vs SalSSA (Fig. 22)."""
    result = Figure22Result()
    for spec in _select_benchmarks(get_suite(suite), benchmarks):
        peaks: Dict[str, int] = {}
        cells: Dict[str, int] = {}
        for technique in ("fmsa", "salssa"):
            module = spec.build()
            run = run_pipeline(module, spec.name, technique, 1, "x86_64",
                               measure_memory=True)
            peaks[technique] = run.peak_merge_bytes
            cells[technique] = run.report.peak_alignment_cells if run.report else 0
        result.rows.append(Figure22Row(spec.name, peaks["fmsa"], peaks["salssa"],
                                       cells["fmsa"], cells["salssa"]))
    return result


# ---------------------------------------------------------------------------
# Figure 23 — alignment + codegen speedup
# ---------------------------------------------------------------------------

@dataclass
class Figure23Row:
    benchmark: str
    fmsa_alignment_seconds: float
    salssa_alignment_seconds: float
    fmsa_codegen_seconds: float
    salssa_codegen_seconds: float

    @property
    def alignment_speedup(self) -> float:
        return self.fmsa_alignment_seconds / self.salssa_alignment_seconds \
            if self.salssa_alignment_seconds > 0 else 0.0

    @property
    def codegen_speedup(self) -> float:
        return self.fmsa_codegen_seconds / self.salssa_codegen_seconds \
            if self.salssa_codegen_seconds > 0 else 0.0


@dataclass
class Figure23Result:
    rows: List[Figure23Row] = field(default_factory=list)

    @property
    def geomean_alignment_speedup(self) -> float:
        return geometric_mean(r.alignment_speedup for r in self.rows if r.alignment_speedup > 0)

    @property
    def geomean_codegen_speedup(self) -> float:
        return geometric_mean(r.codegen_speedup for r in self.rows if r.codegen_speedup > 0)


def figure23_stage_speedups(suite: str = "spec2006",
                            benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                            ) -> Figure23Result:
    """Speedup of SalSSA over FMSA on alignment and code generation (Fig. 23)."""
    result = Figure23Result()
    for spec in _select_benchmarks(get_suite(suite), benchmarks):
        timings: Dict[str, Tuple[float, float]] = {}
        for technique in ("fmsa", "salssa"):
            module = spec.build()
            run = run_pipeline(module, spec.name, technique, 1, "x86_64")
            report = run.report
            timings[technique] = (report.alignment_seconds, report.codegen_seconds) \
                if report else (0.0, 0.0)
        result.rows.append(Figure23Row(spec.name, timings["fmsa"][0], timings["salssa"][0],
                                       timings["fmsa"][1], timings["salssa"][1]))
    return result


# ---------------------------------------------------------------------------
# Figure 24 — end-to-end compile-time overhead
# ---------------------------------------------------------------------------

@dataclass
class Figure24Row:
    benchmark: str
    technique: str
    threshold: int
    normalized_time: float


@dataclass
class Figure24Result:
    rows: List[Figure24Row] = field(default_factory=list)

    def geomean(self, technique: str, threshold: int) -> float:
        values = [row.normalized_time for row in self.rows
                  if row.technique == technique and row.threshold == threshold]
        return geometric_mean(values) if values else 0.0

    def overhead_ratio(self, threshold: int = 1) -> float:
        """How much larger FMSA's overhead is than SalSSA's (paper: ~3x)."""
        salssa = self.geomean("salssa", threshold) - 1.0
        fmsa = self.geomean("fmsa", threshold) - 1.0
        return fmsa / salssa if salssa > 0 else float("inf")


def figure24_compile_time(suite: str = "spec2006",
                          thresholds: Sequence[int] = (1,),
                          benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                          ) -> Figure24Result:
    """End-to-end compile time normalised to the no-merging baseline (Fig. 24)."""
    result = Figure24Result()
    for spec in _select_benchmarks(get_suite(suite), benchmarks):
        for technique in ("fmsa", "salssa"):
            for threshold in thresholds:
                module = spec.build()
                run = run_pipeline(module, spec.name, technique, threshold, "x86_64")
                result.rows.append(Figure24Row(spec.name, technique, threshold,
                                               run.normalized_compile_time))
    return result


# ---------------------------------------------------------------------------
# Figure 25 — program runtime overhead
# ---------------------------------------------------------------------------

@dataclass
class Figure25Row:
    benchmark: str
    technique: str
    baseline_steps: int
    merged_steps: int

    @property
    def normalized_runtime(self) -> float:
        return self.merged_steps / self.baseline_steps if self.baseline_steps else 1.0


@dataclass
class Figure25Result:
    rows: List[Figure25Row] = field(default_factory=list)

    def geomean(self, technique: str) -> float:
        return geometric_mean(row.normalized_runtime for row in self.rows
                              if row.technique == technique)


def _dynamic_steps(module: Module, benchmark: str,
                   analysis_manager: Optional[ModuleAnalysisManager] = None) -> int:
    main_name = f"{benchmark.replace('.', '_')}_main"
    main = module.get_function(main_name)
    if main is None:
        return 0
    total = 0
    for argument in (1, 5, 9):
        result = run_function(module, main, (argument,), max_steps=2_000_000,
                              analysis_manager=analysis_manager)
        total += result.steps
    return total


def figure25_runtime_overhead(suite: str = "spec2006",
                              benchmarks: Optional[Iterable[str]] = DEFAULT_SPEC_SUBSET
                              ) -> Figure25Result:
    """Dynamic instruction overhead of merged programs (Fig. 25 proxy).

    The post-merge dynamic runs share the pipeline's analysis manager, so the
    interpreter reuses the block plans (and any CFG facts the verifier left
    behind) instead of re-deriving them for every input argument.
    """
    result = Figure25Result()
    for spec in _select_benchmarks(get_suite(suite), benchmarks):
        baseline_module = spec.build()
        baseline_manager = ModuleAnalysisManager(baseline_module)
        simplify_module(baseline_module, baseline_manager)
        baseline_steps = _dynamic_steps(baseline_module, spec.name, baseline_manager)
        if baseline_steps == 0:
            continue
        for technique in ("fmsa", "salssa"):
            module = spec.build()
            manager = ModuleAnalysisManager(module)
            run_pipeline(module, spec.name, technique, 1, "x86_64",
                         analysis_manager=manager)
            merged_steps = _dynamic_steps(module, spec.name, manager)
            result.rows.append(Figure25Row(spec.name, technique,
                                           baseline_steps, merged_steps))
    return result


# ---------------------------------------------------------------------------
# A generated workload of any size (analysis-cache experiments)
# ---------------------------------------------------------------------------

def search_workload(num_functions: int, seed: int = 7,
                    batch_size: int = 1024) -> Module:
    """A mibench-like module of ``num_functions`` functions.

    Mirrors the population structure of the larger MiBench programs — mostly
    clone families of 2-4 similar functions with heterogeneous size targets,
    plus a minority of standalone functions — but scales to arbitrary function
    counts, which the real table-driven specs (capped at 48 functions) cannot.

    Generation is batched (:func:`generate_program_in_batches`) so very large
    populations build in linear time; modules up to ``batch_size`` functions
    are bit-identical to the historical single-shot generation.
    """
    rng = random.Random(seed)
    families: List[FamilySpec] = []
    remaining = int(num_functions * 0.8)
    while remaining >= 2:
        family_size = min(rng.randint(2, 4), remaining)
        families.append(FamilySpec(
            size=family_size, divergence=0.07,
            function_size=rng.choice((12, 18, 26, 38, 55, 80))))
        remaining -= family_size
    spec = ProgramSpec(
        name=f"search{num_functions}", seed=seed, families=families,
        standalone_functions=num_functions - sum(f.size for f in families),
        standalone_size=30, with_main=False)
    module = generate_program_in_batches(spec, batch_size=batch_size)
    simplify_module(module)
    return module


def merge_report_digest(report: MergeReport) -> Tuple:
    """A deterministic summary of everything a merge run decided.

    Excludes wall-clock fields, so two runs over identical modules must
    produce equal digests — this is the bit-identity check used by the
    analysis-cache comparison and the cached-vs-uncached parity tests.
    """
    return (
        report.technique,
        report.size_before,
        report.size_after,
        report.instructions_before,
        report.instructions_after,
        report.attempts,
        report.profitable_merges,
        tuple((r.first, r.second, r.merged, r.committed,
               r.matched_instructions, r.alignment_dp_cells, r.decision)
              for r in report.records),
    )


# ---------------------------------------------------------------------------
# Analysis-cache comparison: the manager's recomputation savings (repro.analysis)
# ---------------------------------------------------------------------------

@dataclass
class AnalysisCacheRow:
    """One (module size, cached?) measurement of the analysis-manager workload."""

    num_functions: int
    cached: bool
    wall_seconds: float
    domtree_constructions: int
    fingerprint_constructions: int
    liveness_constructions: int
    analysis_stats: Optional[AnalysisStats]
    report_digest: Tuple


@dataclass
class AnalysisCacheResult:
    """Cached-vs-uncached comparison rows, per module size."""

    rows: List[AnalysisCacheRow] = field(default_factory=list)

    def row(self, num_functions: int, cached: bool) -> Optional[AnalysisCacheRow]:
        for row in self.rows:
            if row.num_functions == num_functions and row.cached == cached:
                return row
        return None

    def construction_ratio(self, num_functions: int, analysis: str) -> float:
        """How many times more constructions the uncached run needed."""
        uncached = self.row(num_functions, cached=False)
        cached = self.row(num_functions, cached=True)
        if uncached is None or cached is None:
            return 0.0
        counts = {
            "DominatorTree": (uncached.domtree_constructions,
                              cached.domtree_constructions),
            "Fingerprint": (uncached.fingerprint_constructions,
                            cached.fingerprint_constructions),
            "LivenessInfo": (uncached.liveness_constructions,
                             cached.liveness_constructions),
        }
        cold, warm = counts[analysis]
        return cold / warm if warm else float("inf")

    def speedup(self, num_functions: int) -> float:
        uncached = self.row(num_functions, cached=False)
        cached = self.row(num_functions, cached=True)
        if uncached is None or cached is None or cached.wall_seconds <= 0:
            return 0.0
        return uncached.wall_seconds / cached.wall_seconds

    def digests_match(self, num_functions: int) -> bool:
        uncached = self.row(num_functions, cached=False)
        cached = self.row(num_functions, cached=True)
        return uncached is not None and cached is not None \
            and uncached.report_digest == cached.report_digest


def _analysis_cache_workload(module: Module,
                             manager: Optional[ModuleAnalysisManager],
                             technique: str, target: str) -> MergeReport:
    """The multi-consumer workload whose analysis traffic the bench measures.

    Mirrors one full experiment iteration: input-IR verification, the
    Figure-5-style register demotion/promotion round trip, re-verification,
    two candidate-index builds over the same module, the merging pass itself
    and a post-merge verification.  Uncached, every stage recomputes its
    dominator trees and fingerprints from scratch; with a shared manager the
    tree built for the input verification survives the whole demote/promote
    round trip (both declare the CFG analyses preserved), the fingerprints
    the index builds and the pass share are computed once, and the
    SSA-repair tree is shared inside every merge attempt.

    The two index builds stand in for an experiment that queries the module
    before merging it.  They are why the cached run constructs at least 2x
    fewer fingerprints: with one build the ratio at 256 functions is 1.77,
    with two it is 2.53.
    """
    verify_module(module, raise_on_error=False, manager=manager)
    demote_module(module, manager)
    promote_module(module, manager)
    verify_module(module, raise_on_error=False, manager=manager)
    for _ in range(2):
        make_index(module, min_size=3, analysis_manager=manager)
    options = make_pass_options(technique, 1, get_target(target))
    report = FunctionMergingPass(options).run(module, analysis_manager=manager)
    verify_module(module, raise_on_error=False, manager=manager)
    return report


def analysis_cache_comparison(sizes: Sequence[int] = (128, 256),
                              technique: str = "salssa",
                              target: str = "arm_thumb",
                              seed: int = 7) -> AnalysisCacheResult:
    """Compare analysis recomputation with and without the shared manager.

    Both runs execute the identical deterministic workload on identically
    generated modules; the merge-report digests must match bit for bit, the
    construction counters must not.
    """
    result = AnalysisCacheResult()
    for num_functions in sizes:
        for cached in (False, True):
            module = search_workload(num_functions, seed=seed)
            manager = ModuleAnalysisManager(module) if cached else None
            with track_constructions() as tracker:
                started = time.perf_counter()
                report = _analysis_cache_workload(module, manager, technique, target)
                wall_seconds = time.perf_counter() - started
            result.rows.append(AnalysisCacheRow(
                num_functions=num_functions,
                cached=cached,
                wall_seconds=wall_seconds,
                domtree_constructions=tracker.delta("DominatorTree"),
                fingerprint_constructions=tracker.delta("Fingerprint"),
                liveness_constructions=tracker.delta("LivenessInfo"),
                analysis_stats=manager.stats if manager else None,
                report_digest=merge_report_digest(report)))
    return result
