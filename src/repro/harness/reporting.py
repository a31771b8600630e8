"""Plain-text rendering of experiment results.

Each ``format_*`` function turns the corresponding experiment result into the
rows the paper's figure/table reports, so running a benchmark prints something
directly comparable to the publication.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..analysis.manager import AnalysisStats
from ..persist import StoreStats
from ..search.stats import SearchStats
from .experiments import (
    AnalysisCacheResult,
    WarmStartResult,
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
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_figure5(result: Figure5Result) -> str:
    rows = [(row.benchmark, row.size_before, row.size_after, f"{row.normalized:.2f}")
            for row in result.rows]
    rows.append(("GMean", "", "", f"{result.geomean_growth:.2f}"))
    return format_table(("benchmark", "insts before", "insts after reg2mem", "normalized"),
                        rows)


def format_reduction(result: ReductionResult) -> str:
    rows = [(row.benchmark, row.technique, row.threshold,
             f"{row.reduction_percent:.1f}%", row.profitable_merges, row.attempts)
            for row in result.rows]
    for (technique, threshold), value in result.summary().items():
        rows.append(("GMean", technique, threshold, f"{value:.1f}%", "", ""))
    return format_table(("benchmark", "technique", "t", "reduction", "merges", "attempts"),
                        rows)


def format_table1(result: Table1Result) -> str:
    rows = [(row.benchmark, row.num_functions,
             f"{row.min_size}/{row.avg_size:.1f}/{row.max_size}",
             row.fmsa_merges, row.salssa_merges) for row in result.rows]
    rows.append(("Total", "", "", result.total_fmsa, result.total_salssa))
    return format_table(("benchmark", "#fns", "min/avg/max size", "FMSA[t=1]", "SalSSA[t=1]"),
                        rows)


def format_figure19(result: Figure19Result) -> str:
    rows = [(index, f"{value:+.3f}%")
            for index, value in enumerate(result.contributions_percent)]
    rows.append(("total", f"{result.total_percent:+.3f}%"))
    return format_table(("merge #", "size contribution"), rows)


def format_figure20(result: Figure20Result) -> str:
    rows = [(row.benchmark, f"{row.fmsa:.1f}%", f"{row.salssa_nopc:.1f}%",
             f"{row.salssa:.1f}%") for row in result.rows]
    means = result.geomeans()
    rows.append(("GMean", f"{means['fmsa']:.1f}%", f"{means['salssa_nopc']:.1f}%",
                 f"{means['salssa']:.1f}%"))
    return format_table(("benchmark", "FMSA", "SalSSA-NoPC", "SalSSA"), rows)


def format_figure21(result: Figure21Result) -> str:
    rows = [(row.benchmark, row.fmsa_merges, row.salssa_merges) for row in result.rows]
    rows.append(("Total", result.total_fmsa, result.total_salssa))
    return format_table(("benchmark", "FMSA merges", "SalSSA merges"), rows)


def format_figure22(result: Figure22Result) -> str:
    rows = [(row.benchmark, f"{row.fmsa_bytes / 1e6:.2f} MB",
             f"{row.salssa_bytes / 1e6:.2f} MB",
             row.fmsa_dp_cells, row.salssa_dp_cells) for row in result.rows]
    rows.append(("GMean ratio", f"{result.mean_ratio:.2f}x", "", "", ""))
    return format_table(("benchmark", "FMSA peak", "SalSSA peak",
                         "FMSA DP cells", "SalSSA DP cells"), rows)


def format_figure23(result: Figure23Result) -> str:
    rows = [(row.benchmark, f"{row.alignment_speedup:.2f}x", f"{row.codegen_speedup:.2f}x")
            for row in result.rows]
    rows.append(("GMean", f"{result.geomean_alignment_speedup:.2f}x",
                 f"{result.geomean_codegen_speedup:.2f}x"))
    return format_table(("benchmark", "alignment speedup", "codegen speedup"), rows)


def format_figure24(result: Figure24Result) -> str:
    rows = [(row.benchmark, row.technique, row.threshold, f"{row.normalized_time:.2f}")
            for row in result.rows]
    seen = sorted({(r.technique, r.threshold) for r in result.rows})
    for technique, threshold in seen:
        rows.append(("GMean", technique, threshold,
                     f"{result.geomean(technique, threshold):.2f}"))
    return format_table(("benchmark", "technique", "t", "normalized compile time"), rows)


def format_analysis_stats(stats: AnalysisStats) -> str:
    """One-line summary of an analysis manager's cache counters."""
    recomputed = ", ".join(f"{name}: {count}" for name, count
                           in sorted(stats.computed_by_analysis.items()))
    return (f"analysis cache: {stats.hits} hits / {stats.misses} misses "
            f"({100.0 * stats.hit_rate:.1f}% hit rate), "
            f"{stats.invalidations} invalidations, "
            f"{stats.preserved} preservations"
            + (f" [{recomputed}]" if recomputed else ""))


def format_analysis_cache(result: AnalysisCacheResult) -> str:
    rows = []
    for row in result.rows:
        rows.append((row.num_functions, "cached" if row.cached else "uncached",
                     f"{row.wall_seconds * 1e3:.0f} ms",
                     row.domtree_constructions, row.fingerprint_constructions,
                     f"{100.0 * row.analysis_stats.hit_rate:.1f}%"
                     if row.analysis_stats else "n/a"))
    sizes = sorted({row.num_functions for row in result.rows})
    for size in sizes:
        rows.append((size, "ratio",
                     f"{result.speedup(size):.2f}x",
                     f"{result.construction_ratio(size, 'DominatorTree'):.2f}x",
                     f"{result.construction_ratio(size, 'Fingerprint'):.2f}x",
                     "match" if result.digests_match(size) else "MISMATCH"))
    return format_table(("#fns", "mode", "wall", "domtrees", "fingerprints",
                         "hit rate / digest"), rows)


def format_store_stats(stats: StoreStats) -> str:
    """One-line summary of an artifact store's counters."""
    extras = []
    if stats.corrupt_records:
        extras.append(f"{stats.corrupt_records} corrupt")
    if stats.schema_mismatches:
        extras.append(f"{stats.schema_mismatches} schema-mismatched")
    if stats.write_errors:
        extras.append(f"{stats.write_errors} write errors")
    return (f"artifact store: {stats.hits} hits / {stats.misses} misses "
            f"({100.0 * stats.hit_rate:.1f}% hit rate), {stats.stores} stores"
            + (f" [{', '.join(extras)}]" if extras else ""))


def format_warm_start(result: WarmStartResult) -> str:
    rows = []
    for row in result.rows:
        stats = row.persist_stats
        rows.append((row.num_functions, row.mode,
                     f"{row.wall_seconds * 1e3:.0f} ms",
                     row.fingerprints_computed,
                     f"{100.0 * stats.hit_rate:.1f}%" if stats else "n/a"))
    for size in sorted({row.num_functions for row in result.rows}):
        rows.append((size, "ratio",
                     f"{result.speedup(size):.2f}x",
                     f"-{100.0 * result.fingerprint_reduction(size):.1f}%",
                     "match" if result.digests_match(size) else "MISMATCH"))
    return format_table(("#fns", "mode", "wall", "fingerprints",
                         "store hit rate / digest"), rows)


def format_search_stats(stats: SearchStats) -> str:
    """One-line summary of a merge run's candidate-search counters."""
    return (f"search: {stats.queries} queries, "
            f"{stats.candidates_scanned}/{stats.population_available} candidates "
            f"scanned ({100.0 * stats.scan_fraction:.1f}%), "
            f"{stats.candidates_returned} returned, "
            f"{stats.inserts} inserts / {stats.removals} removals / "
            f"{stats.updates} updates")


def format_figure25(result: Figure25Result) -> str:
    rows = [(row.benchmark, row.technique, row.baseline_steps, row.merged_steps,
             f"{row.normalized_runtime:.2f}") for row in result.rows]
    for technique in ("fmsa", "salssa"):
        rows.append(("GMean", technique, "", "", f"{result.geomean(technique):.2f}"))
    return format_table(("benchmark", "technique", "baseline steps", "merged steps",
                         "normalized runtime"), rows)
