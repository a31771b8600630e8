#!/usr/bin/env python3
"""Candidate-search strategies: scaling the merge pass past small modules.

The merge pass explores, for each function, the ``t`` most similar partners
by fingerprint distance.  The ``repro.search`` subsystem finds them with
pluggable indexes.  This example:

1. generates a mibench-like module with a few hundred functions,
2. runs the same SalSSA merge pass with each search strategy,
3. prints merge results and the per-strategy search counters — showing the
   exact, size-bounded exhaustive index and the approximate MinHash/LSH
   index each scoring a small fraction of the candidate pairs.

Run with:  PYTHONPATH=src python examples/candidate_search_strategies.py
"""

import time

from repro.harness.experiments import search_workload
from repro.harness.reporting import format_search_stats
from repro.merge.pass_manager import FunctionMergingPass, MergePassOptions
from repro.search import available_strategies


def main() -> None:
    num_functions = 256
    print(f"generating a mibench-like module with ~{num_functions} functions...")
    print(f"available strategies: {', '.join(available_strategies())}\n")

    for strategy in ("exhaustive", "size_buckets", "minhash_lsh"):
        module = search_workload(num_functions, seed=7)
        options = MergePassOptions(technique="salssa", exploration_threshold=1,
                                   search_strategy=strategy)
        started = time.perf_counter()
        report = FunctionMergingPass(options).run(module)
        elapsed = time.perf_counter() - started
        print(f"--- {strategy} ---")
        print(f"merges: {report.profitable_merges} profitable / "
              f"{report.attempts} attempted, "
              f"size {report.size_before} -> {report.size_after} "
              f"({report.reduction_percent:.1f}% reduction), {elapsed:.2f}s")
        print(format_search_stats(report.search_stats))
        print()


if __name__ == "__main__":
    main()
