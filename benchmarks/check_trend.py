#!/usr/bin/env python
"""CI perf-trend regression gate over ``benchmarks/trend.jsonl``.

The smoke benches append one JSON row per run when ``REPRO_TREND=1`` (see
``conftest.append_trend``); this script closes the loop by *reading* the
series back and failing CI when a tracked metric regresses.  For every
``(bench, context)`` series it compares the newest row against the trailing
median of the prior rows:

* **Context** fields (module size) key the series — rows measured under
  different configurations never compare against each other.
* **Deterministic** metrics (recall, construction ratios, hit rates,
  computation reductions) hard-fail when they drop beyond their tolerance —
  but only once the series has at least ``MIN_HISTORY`` prior rows, so a
  fresh repository is advisory-only and the gate tightens as history grows.
* **Wall-clock** metrics (speedups) are advisory at any depth: they are
  reported and tracked but never fail CI, the same stance the benches
  themselves take (`extra_info`, not `assert`).
* ``digests_match`` is a correctness bit, not a trend: a falsy value in the
  newest row fails immediately, history or not.

Exit status: 0 when every check passes (or is advisory), 1 on any hard
failure, 2 on usage errors.  Run it after the benches::

    REPRO_TREND=1 REPRO_SMOKE=1 python -m pytest benchmarks/ ...
    python benchmarks/check_trend.py
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Prior rows a series needs before a deterministic metric hard-fails.
#: Below this depth every finding is advisory — a new bench (or a renamed
#: metric) must never break CI on its first rows.
MIN_HISTORY = 2


@dataclass(frozen=True)
class MetricPolicy:
    """How one tracked metric is judged against its trailing median."""

    #: "higher" — regressions are drops; "lower" — regressions are rises.
    direction: str
    #: Allowed relative drift, as a fraction of the baseline's magnitude.
    tolerance: float
    #: Absolute slack added on top — keeps near-zero baselines (e.g. a delta
    #: that rescores 0 pairs) from turning any noise into a fail.
    abs_slack: float = 0.0
    #: Advisory metrics report but never fail (wall-clock speedups).
    advisory: bool = False


@dataclass(frozen=True)
class BenchPolicy:
    """Which row fields key a series and which are judged as metrics."""

    context: Tuple[str, ...]
    metrics: Dict[str, MetricPolicy] = field(default_factory=dict)


#: One entry per bench that appends trend rows.  Context fields must identify
#: the configuration well enough that rows in one series are comparable.
POLICIES: Dict[str, BenchPolicy] = {
    "analysis_cache": BenchPolicy(
        context=("num_functions",),
        metrics={
            "domtree_ratio": MetricPolicy("higher", 0.10),
            "fingerprint_ratio": MetricPolicy("higher", 0.10),
            "hit_rate": MetricPolicy("higher", 0.05, abs_slack=0.01),
            "speedup": MetricPolicy("higher", 0.25, advisory=True),
        }),
    "obs_overhead": BenchPolicy(
        # digest parity across events-off/on/deep fails immediately; the
        # wall-clock overhead ratios are advisory (CI runners are noisy),
        # the drop counter is deterministic for a fixed workload and gated.
        context=("num_functions",),
        metrics={
            "overhead_ratio": MetricPolicy("lower", 0.25, abs_slack=0.05,
                                           advisory=True),
            "deep_ratio": MetricPolicy("lower", 0.25, abs_slack=0.10,
                                       advisory=True),
            "events_dropped": MetricPolicy("lower", 0.0, abs_slack=0.0),
        }),
    "obs_sink": BenchPolicy(
        # The durable-sink contract is deterministic for a fixed workload:
        # disk replay must never miss an event and writes must never fail
        # (zero tolerance, zero slack).  Wall-clock ratio stays advisory.
        context=("num_functions",),
        metrics={
            "sink_ratio": MetricPolicy("lower", 0.25, abs_slack=0.10,
                                       advisory=True),
            "sink_disk_missing": MetricPolicy("lower", 0.0, abs_slack=0.0),
            "sink_write_errors": MetricPolicy("lower", 0.0, abs_slack=0.0),
        }),
    "incremental": BenchPolicy(
        # digest parity (the digests_match correctness bit) fails
        # immediately on the newest row; the pair-reuse fraction is
        # deterministic and gated; wall-clock speedup stays advisory.
        context=("num_functions",),
        metrics={
            "rescore_fraction": MetricPolicy("lower", 0.10, abs_slack=0.02),
            "pairs_rescored": MetricPolicy("lower", 0.25, abs_slack=2.0),
            "speedup": MetricPolicy("higher", 0.25, advisory=True),
        }),
}

DEFAULT_TREND = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "trend.jsonl")


@dataclass
class Finding:
    """One judged (series, metric) comparison."""

    severity: str  # "fail" | "warn" | "ok"
    message: str


def load_rows(path: str) -> Tuple[List[dict], List[str]]:
    """Parse trend rows in append order; malformed lines warn, never raise."""
    rows: List[dict] = []
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                problems.append(f"line {number}: unparsable JSON, skipped")
                continue
            if not isinstance(row, dict) or "bench" not in row:
                problems.append(f"line {number}: no 'bench' field, skipped")
                continue
            rows.append(row)
    return rows, problems


def series_key(row: dict, policy: BenchPolicy) -> Tuple:
    return (row["bench"],) + tuple(
        (name, row.get(name)) for name in policy.context)


def describe_series(key: Tuple) -> str:
    bench = key[0]
    context = ", ".join(f"{name}={value}" for name, value in key[1:])
    return f"{bench}[{context}]" if context else bench


def judge_metric(name: str, policy: MetricPolicy, newest: float,
                 prior: List[float], series: str) -> Finding:
    """Compare the newest value against the trailing median of ``prior``."""
    if len(prior) < MIN_HISTORY:
        return Finding("warn", f"{series} {name}={newest}: only {len(prior)} "
                               f"prior row(s) (<{MIN_HISTORY}), advisory")
    baseline = statistics.median(prior)
    allowed = max(policy.tolerance * abs(baseline), policy.abs_slack)
    if policy.direction == "higher":
        regressed = newest < baseline - allowed
    else:
        regressed = newest > baseline + allowed
    if not regressed:
        return Finding("ok", f"{series} {name}={newest} vs median {baseline} "
                             f"(±{allowed:.4g}): ok")
    severity = "warn" if policy.advisory else "fail"
    arrow = "below" if policy.direction == "higher" else "above"
    return Finding(severity,
                   f"{series} {name}={newest} is {arrow} trailing median "
                   f"{baseline} beyond tolerance ±{allowed:.4g} "
                   f"({len(prior)} prior rows)"
                   + (" [advisory: wall-clock]" if policy.advisory else ""))


def check_rows(rows: List[dict]) -> List[Finding]:
    findings: List[Finding] = []
    series: Dict[Tuple, List[dict]] = {}
    for row in rows:
        policy = POLICIES.get(row["bench"])
        if policy is None:
            findings.append(Finding(
                "warn", f"unknown bench {row['bench']!r}: no policy, skipped"))
            continue
        series.setdefault(series_key(row, policy), []).append(row)

    for key in sorted(series, key=repr):
        history = series[key]
        newest = history[-1]
        prior = history[:-1]
        name = describe_series(key)
        policy = POLICIES[key[0]]

        # Correctness bit: judged on the newest row alone, never advisory.
        if "digests_match" in newest and not newest["digests_match"]:
            findings.append(Finding(
                "fail", f"{name} digests_match={newest['digests_match']!r}: "
                        f"determinism contract broken"))

        for metric, metric_policy in sorted(policy.metrics.items()):
            value = newest.get(metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue  # bench stopped emitting it; nothing to judge
            prior_values = [row[metric] for row in prior
                            if isinstance(row.get(metric), (int, float))
                            and not isinstance(row.get(metric), bool)]
            findings.append(judge_metric(metric, metric_policy, value,
                                         prior_values, name))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate CI on benchmark trend regressions.")
    parser.add_argument("--trend", default=DEFAULT_TREND,
                        help="trend.jsonl path (default: next to this script)")
    parser.add_argument("--verbose", action="store_true",
                        help="print passing checks too")
    args = parser.parse_args(argv)

    if not os.path.exists(args.trend):
        print(f"check_trend: no trend file at {args.trend}; nothing to gate "
              f"(run benches with REPRO_TREND=1 to start a history)")
        return 0
    rows, problems = load_rows(args.trend)
    for problem in problems:
        print(f"check_trend: WARNING {problem}")
    if not rows:
        print("check_trend: trend file has no usable rows; nothing to gate")
        return 0

    findings = check_rows(rows)
    failures = [f for f in findings if f.severity == "fail"]
    warnings = [f for f in findings if f.severity == "warn"]
    passed = [f for f in findings if f.severity == "ok"]

    for finding in failures:
        print(f"check_trend: FAIL {finding.message}")
    for finding in warnings:
        print(f"check_trend: warn {finding.message}")
    if args.verbose:
        for finding in passed:
            print(f"check_trend: ok   {finding.message}")
    print(f"check_trend: {len(rows)} rows, {len(passed)} ok, "
          f"{len(warnings)} advisory, {len(failures)} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
