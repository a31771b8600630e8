"""Compare two sets of benchmark runs of the merge pipeline.

    python3 bench/compare.py A.json B.json

``A.json`` and ``B.json`` are written by ``python3 bench/run.py --out``;
A is the baseline.  For every end-to-end metric in ``BENCHMARK.json`` and
every workload, one row gives each side's median and quartiles over its
runs, B's change against A, and a verdict:

``ok``
    B is not worse than A by more than the metric's bound.
``worse``
    B is worse than A by more than the bound.
``unresolved``
    The run-to-run spread (interquartile range over median) on either side
    is wider than the bound, so the medians cannot be told apart; unless
    every run of B is better, or every run of B is worse by more than the
    bound, than every run of A.

The exit status is 1 when any row is ``worse``, or when any run on either
side failed an operation or gave no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Runs = Dict[str, List[dict]]


def load_runs(path: str) -> Runs:
    """Results per workload; a run that gave no result is kept as None."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    runs: Runs = {}
    for run in record["runs"]:
        runs.setdefault(run["workload"], []).append(run["result"])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, the quartiles by
    ``statistics.quantiles``' default method; a single value is all
    three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worsening(base: float, value: float, better: str) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if value == 0 else float("inf")
    change = (value - base) / base
    return change if better == "lower" else -change


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / a_median if a_median else 0.0,
                 (b_q3 - b_q1) / b_median if b_median else 0.0)
    change = worsening(a_median, b_median, better)
    if spread <= bound:
        return "worse" if change > bound else "ok"
    if all(worsening(x, y, better) < 0 for x in a for y in b):
        return "ok"
    if all(worsening(x, y, better) > bound for x in a for y in b):
        return "worse"
    return "unresolved"


def compare(spec: dict, a: Runs, b: Runs) -> Tuple[List[str], bool]:
    """The report's lines, and whether B passes."""
    lines: List[str] = []
    passed = True
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in a and w["name"] in b]
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        lines.append(f"{name} ({metric['unit']}, {better} is better, "
                     f"bound {bound:.0%})")
        lines.append(f"  {'workload':<12} {'A median [q1, q3]':>30} "
                     f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
        for workload in workloads:
            a_values = [r["metrics"][name]["value"] for r in a[workload] if r]
            b_values = [r["metrics"][name]["value"] for r in b[workload] if r]
            if not a_values or not b_values:
                lines.append(f"  {workload:<12} no result")
                passed = False
                continue
            a_q1, a_median, a_q3 = quartiles(a_values)
            b_q1, b_median, b_q3 = quartiles(b_values)
            change = (b_median - a_median) / a_median if a_median else 0.0
            outcome = verdict(a_values, b_values, better, bound)
            passed = passed and outcome != "worse"
            a_cell = f"{a_median:.4f} [{a_q1:.4f}, {a_q3:.4f}]"
            b_cell = f"{b_median:.4f} [{b_q1:.4f}, {b_q3:.4f}]"
            lines.append(f"  {workload:<12} {a_cell:>30} {b_cell:>30} "
                         f"{change:>+8.1%}  {outcome}")
    lines.append("fail_rate (failed / attempted operations)")
    for side, runs in (("A", a), ("B", b)):
        for workload in workloads:
            results = runs[workload]
            attempted = sum(r["attempted"] for r in results if r)
            failed = sum(r["failed"] for r in results if r)
            missing = sum(1 for r in results if not r)
            note = f", {missing} runs gave no result" if missing else ""
            lines.append(f"  {side} {workload:<12} {failed}/{attempted}{note}")
            passed = passed and failed == 0 and missing == 0
    return lines, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two result files of bench/run.py --out.")
    parser.add_argument("baseline", help="A: the parent's results")
    parser.add_argument("candidate", help="B: the change's results")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, passed = compare(spec, load_runs(args.baseline),
                            load_runs(args.candidate))
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
