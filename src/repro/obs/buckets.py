"""Histogram-bucket tuning from recorded trend quantiles.

The registry's one-size defaults (:data:`~repro.obs.DEFAULT_TIME_BUCKETS`,
:data:`~repro.obs.DEFAULT_BUCKETS`) span sub-millisecond analyses to
minute-long merges — fine as a first ladder, but a family whose
observations cluster in two of sixteen buckets answers quantile queries
poorly.  This module closes the loop with the perf-trend history: the
overhead bench records per-family timer quantiles into
``benchmarks/trend.jsonl`` (see ``bench_obs_overhead.py``), and
:func:`tuned_bucket_overrides` turns that history into per-family bucket
bounds for :class:`~repro.obs.MetricsRegistry`'s ``bucket_overrides=``.

Safety: overrides become part of the family *declaration*, so two
registries (or a registry and a shipped snapshot) holding the same family
under different ladders refuse to merge — ``MetricsRegistry.merge`` trips
the family-compatibility check and snapshot restore additionally compares
the per-sample bounds — a mis-fold never happens silently.  Families with
no recorded data keep the defaults: :func:`tuned_bucket_overrides` simply
omits them.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Bounds per derived ladder.  Matches the defaults' resolution without
#: inflating exposition size.
DEFAULT_LADDER_POINTS = 12

#: Headroom factor around the observed quantile range: the ladder spans
#: ``[min/SPAN, max*SPAN]`` so tail observations beyond the recorded
#: quantiles still land in finite buckets.
SPAN = 4.0

#: Minimum recorded quantile values a family needs before its ladder is
#: tuned — one row's worth of quantiles is too little history to re-shape
#: a family every commit.
MIN_SAMPLES = 3


def _round_sig(value: float, digits: int = 2) -> float:
    """Round to ``digits`` significant figures (stable, human-scannable
    bucket edges: 0.0023 not 0.002281374)."""
    if value == 0 or not math.isfinite(value):
        return value
    exponent = math.floor(math.log10(abs(value)))
    factor = 10.0 ** (exponent - digits + 1)
    return round(value / factor) * factor


def collect_timer_quantiles(rows: Iterable[Mapping]
                            ) -> Dict[str, List[float]]:
    """Gather per-family quantile values from trend rows.

    Rows carry them as ``{"timer_quantiles": {family: {"p50": .., "p90":
    .., "p99": ..}}}`` (a list of values per family is accepted too).
    Non-numeric and non-positive entries are ignored — quantiles feed a
    log-spaced ladder, which has no place for zeros.
    """
    collected: Dict[str, List[float]] = {}
    for row in rows:
        quantiles = row.get("timer_quantiles")
        if not isinstance(quantiles, Mapping):
            continue
        for family, recorded in quantiles.items():
            if isinstance(recorded, Mapping):
                values = recorded.values()
            elif isinstance(recorded, (list, tuple)):
                values = recorded
            else:
                continue
            usable = [float(value) for value in values
                      if isinstance(value, (int, float))
                      and not isinstance(value, bool)
                      and math.isfinite(value) and value > 0]
            if usable:
                collected.setdefault(str(family), []).extend(usable)
    return collected


def derive_buckets(samples: Sequence[float],
                   points: int = DEFAULT_LADDER_POINTS,
                   span: float = SPAN) -> Optional[Tuple[float, ...]]:
    """A log-spaced bucket ladder covering the recorded quantile range.

    Returns ``None`` when the samples cannot support a ladder (fewer than
    :data:`MIN_SAMPLES` positive values, or a degenerate range) — the
    caller then keeps the family's default bounds.
    """
    finite = sorted(value for value in samples
                    if math.isfinite(value) and value > 0)
    if len(finite) < MIN_SAMPLES:
        return None
    low = finite[0] / span
    high = finite[-1] * span
    if high <= low:
        high = low * 10.0
    ratio = (high / low) ** (1.0 / (points - 1))
    bounds = sorted({_round_sig(low * ratio ** step)
                     for step in range(points)})
    bounds = [bound for bound in bounds if bound > 0]
    if len(bounds) < 2:
        return None
    return tuple(bounds)


def _default_trend_path() -> str:
    return os.path.normpath(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        os.pardir, os.pardir, "benchmarks", "trend.jsonl"))


#: ``(path, points) -> ((mtime_ns, size), overrides)`` — the pipeline applies
#: tuned ladders by default, so the trend file must not be re-parsed on
#: every ``run_pipeline`` call; the stat signature invalidates on append.
_TUNED_CACHE: Dict[Tuple[str, int], Tuple[Tuple[int, int],
                                          Dict[str, Tuple[float, ...]]]] = {}


def cached_bucket_overrides(trend_path: Optional[str] = None,
                            points: int = DEFAULT_LADDER_POINTS
                            ) -> Dict[str, Tuple[float, ...]]:
    """:func:`tuned_bucket_overrides`, memoized on the trend file's stat
    signature — what the pipeline's default-on tuning calls per run."""
    if trend_path is None:
        trend_path = _default_trend_path()
    try:
        status = os.stat(trend_path)
    except OSError:
        return {}
    signature = (status.st_mtime_ns, status.st_size)
    cached = _TUNED_CACHE.get((trend_path, points))
    if cached is not None and cached[0] == signature:
        return dict(cached[1])
    overrides = tuned_bucket_overrides(trend_path, points=points)
    _TUNED_CACHE[(trend_path, points)] = (signature, overrides)
    return dict(overrides)


def tuned_bucket_overrides(trend_path: Optional[str] = None,
                           points: int = DEFAULT_LADDER_POINTS
                           ) -> Dict[str, Tuple[float, ...]]:
    """Per-family bucket overrides derived from a trend history.

    The return value plugs straight into
    ``MetricsRegistry(bucket_overrides=...)``.  Families without enough
    recorded quantiles are omitted (they keep the one-size defaults), and a
    missing or unreadable trend file yields ``{}`` — tuning is an
    optimisation, never a requirement.
    """
    if trend_path is None:
        trend_path = _default_trend_path()
    rows: List[dict] = []
    try:
        with open(trend_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if isinstance(row, dict):
                    rows.append(row)
    except OSError:
        return {}
    overrides: Dict[str, Tuple[float, ...]] = {}
    for family, samples in sorted(collect_timer_quantiles(rows).items()):
        bounds = derive_buckets(samples, points=points)
        if bounds is not None:
            overrides[family] = bounds
    return overrides
