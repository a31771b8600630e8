"""Measurement utilities for the experiment harness: timing, peak memory and
aggregate statistics (geometric means) used across the figures."""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from ..analysis.manager import AnalysisStats
from ..search.stats import SearchStats


@dataclass
class Measurement:
    """Wall-clock and peak-memory observation of one callable."""

    seconds: float
    peak_bytes: int = 0


def measure_time(callable_: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Run ``callable_`` and return ``(result, elapsed_seconds)``."""
    started = time.perf_counter()
    result = callable_(*args, **kwargs)
    return result, time.perf_counter() - started


def measure_peak_memory(callable_: Callable, *args, **kwargs) -> Tuple[object, int]:
    """Run ``callable_`` under ``tracemalloc`` and return ``(result, peak_bytes)``.

    This mirrors the paper's Figure 22 methodology of measuring memory usage
    only while the function-merging optimisation runs.
    """
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = callable_(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return result, peak


@contextmanager
def stopwatch():
    """Context manager yielding a mutable :class:`Measurement`."""
    measurement = Measurement(0.0)
    started = time.perf_counter()
    try:
        yield measurement
    finally:
        measurement.seconds = time.perf_counter() - started


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (zero/negative values are clamped).

    The paper reports geometric means over benchmarks for reductions and
    normalised times; values are clamped to a small epsilon so an occasional
    zero (e.g. a benchmark with no merges) does not collapse the mean.
    """
    values = list(values)
    if not values:
        return 0.0
    clamped = [max(v, 1e-9) for v in values]
    return math.exp(sum(math.log(v) for v in clamped) / len(clamped))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _merge_distinct(combined, stats):
    """Merge each *distinct* stats object into ``combined`` exactly once.

    Several results routinely alias one live stats object — a pipeline
    result and its merge report share their search stats — so entries are
    deduplicated by identity before merging; folding the same object twice
    would double every total.  ``None`` entries are skipped.
    """
    seen = set()
    for entry in stats:
        if entry is None or id(entry) in seen:
            continue
        seen.add(id(entry))
        combined.merge(entry)
    return combined


def combine_search_stats(stats: Iterable[Optional[SearchStats]]) -> SearchStats:
    """Roll per-module candidate-search stats up into one aggregate.

    Accepts the ``report.search_stats`` of many merge runs (``None`` entries —
    e.g. from baseline-only pipeline runs — are skipped, and aliases of one
    stats object count once) and returns a single :class:`SearchStats` whose
    totals and :attr:`~SearchStats.scan_fraction` cover the whole experiment.
    """
    return _merge_distinct(SearchStats(), stats)


def combine_analysis_stats(stats: Iterable[Optional[AnalysisStats]]) -> AnalysisStats:
    """Roll per-run analysis-manager counters up into one aggregate.

    Accepts the ``analysis_stats`` of many pipeline results (``None`` entries
    — runs without analysis caching — are skipped, and aliases of one stats
    object count once); the merged counters cover the whole experiment,
    mirroring :func:`combine_search_stats`.
    """
    return _merge_distinct(AnalysisStats(), stats)


def speedup(reference_seconds: float, measured_seconds: float) -> float:
    """Speedup of ``measured`` over ``reference`` (reference / measured)."""
    if measured_seconds <= 0:
        return float("inf") if reference_seconds > 0 else 1.0
    return reference_seconds / measured_seconds
