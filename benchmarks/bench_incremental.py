"""Incremental re-merging: near-O(|delta|) warm runs vs cold re-runs.

Not a paper figure — this benchmarks ``repro.incremental``, the subsystem
that replays the merge pipeline over a live module after a small edit while
memoizing every pair decision and merged body from the previous run.  The
scenario is the live-module loop the subsystem exists for:

1. bootstrap: an incremental run over the pristine module (cost of a cold
   run, plus state capture);
2. a **single-function edit** (one constant nudged in one function body);
3. an incremental re-run driven by the detected delta, against a cold
   re-run of the identical edited module.

Expected shape — and the subsystem's acceptance bar, asserted below:

* the incremental report is **bit-identical** to the cold report
  (``merge_report_digest``, wall-clock excluded) — asserted in every mode;
* the incremental run **re-scores < 10%** of the pairs the cold run
  attempts, reusing memoized outcomes for the rest (deterministic, asserted
  under ``REPRO_FULL=1`` at 1024 functions);
* it is **>= 5x faster** than the cold re-run (wall-clock; asserted only
  under ``REPRO_FULL=1`` at 1024 functions, reported otherwise, so CI
  timing noise cannot fail the smoke run).

``REPRO_SMOKE=1`` shrinks the sweep to one small module (the CI smoke
step); ``REPRO_FULL=1`` extends it to the 1024-function acceptance size.
"""

import os
import random
import time

from repro.harness import run_pipeline, run_pipeline_incremental
from repro.harness.experiments import merge_report_digest, search_workload
from repro.incremental import copy_module
from repro.workloads import mutate_constant

from conftest import FULL, append_trend, run_once

SMOKE = os.environ.get("REPRO_SMOKE", "0") not in ("0", "", "false")
SIZES = (64,) if SMOKE else ((256, 1024) if FULL else (256,))

#: The FULL-only acceptance bars (ISSUE: single-function delta on a
#: 1024-function module).
ACCEPTANCE_SIZE = 1024
MAX_RESCORE_FRACTION = 0.10
MIN_SPEEDUP = 5.0


def incremental_comparison(sizes):
    rows = []
    for size in sizes:
        module = search_workload(size)
        run = run_pipeline_incremental(module, benchmark="bench")
        state = run.state
        # One edit in one function: the smallest interesting delta.
        rng = random.Random(size)
        functions = module.defined_functions()
        edited = False
        for target in functions[len(functions) // 3:]:
            if mutate_constant(target, rng):
                edited = True
                break
        assert edited, "workload has no mutable constant — bad setup"

        start = time.perf_counter()
        warm = run_pipeline_incremental(module, state)
        warm_seconds = time.perf_counter() - start

        start = time.perf_counter()
        cold = run_pipeline(copy_module(module), "bench")
        cold_seconds = time.perf_counter() - start

        stats = warm.stats
        pairs_total = stats.pairs_reused + stats.pairs_rescored
        rows.append({
            "num_functions": size,
            "warm_seconds": warm_seconds,
            "cold_seconds": cold_seconds,
            "speedup": cold_seconds / warm_seconds if warm_seconds else 0.0,
            "pairs_rescored": stats.pairs_rescored,
            "pairs_total": pairs_total,
            "rescore_fraction": stats.pairs_rescored / pairs_total
            if pairs_total else 1.0,
            "merges_spliced": stats.merges_spliced,
            "merges_recomputed": stats.merges_recomputed,
            "digests_match": merge_report_digest(warm.report)
            == merge_report_digest(cold.report),
        })
    return rows


def test_incremental_single_function_delta(benchmark):
    rows = run_once(benchmark, incremental_comparison, SIZES)
    print()
    for row in rows:
        print(f"  {row['num_functions']:5d} fns: warm {row['warm_seconds']:.3f}s"
              f" cold {row['cold_seconds']:.3f}s ({row['speedup']:.1f}x), "
              f"rescored {row['pairs_rescored']}/{row['pairs_total']} "
              f"({100 * row['rescore_fraction']:.1f}%), "
              f"spliced {row['merges_spliced']}, "
              f"digests_match={row['digests_match']}")
    largest = max(SIZES)
    newest = next(r for r in rows if r["num_functions"] == largest)
    benchmark.extra_info["speedup"] = round(newest["speedup"], 2)
    benchmark.extra_info["rescore_fraction"] = round(
        newest["rescore_fraction"], 4)
    append_trend(
        "incremental", num_functions=largest,
        speedup=round(newest["speedup"], 3),
        rescore_fraction=round(newest["rescore_fraction"], 4),
        pairs_rescored=newest["pairs_rescored"],
        merges_spliced=newest["merges_spliced"],
        merges_recomputed=newest["merges_recomputed"],
        digests_match=all(r["digests_match"] for r in rows))

    # Bit-identity is the contract: asserted in every mode, every size.
    for row in rows:
        assert row["digests_match"], \
            f"incremental and cold reports diverged at " \
            f"{row['num_functions']} functions"
    # The perf bars only bind at the acceptance size (FULL runs), where the
    # reuse has enough pairs to amortize; smoke sizes report but never fail.
    for row in rows:
        if row["num_functions"] >= ACCEPTANCE_SIZE:
            assert row["rescore_fraction"] < MAX_RESCORE_FRACTION, row
            assert row["speedup"] >= MIN_SPEEDUP, row
