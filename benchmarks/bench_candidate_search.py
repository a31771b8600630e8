"""Candidate-search scaling: exhaustive vs size-bucket vs MinHash/LSH.

Not a paper figure — this benchmarks the ``repro.search`` subsystem behind
the merge pass's candidate ranking.  For growing mibench-like modules it
reports, per strategy: index build time, per-query time, top-k recall
(identity and distance-aware quality) against the exhaustive reference, and
the fraction of candidate pairs actually scored.

Expected shape: the exhaustive index stays exact while its size bound keeps
it to a small share of the pairs, and LSH recall holds >= 0.9 while scanning
< 25% of the pairs once modules reach a few hundred functions.
``REPRO_FULL=1`` extends the sweep to 8192 functions (module generation is
batched — ``generate_program_in_batches`` — which is what makes the points
past 4096 affordable; the 8192 point only runs with ``REPRO_SMOKE=0``, i.e.
never in the CI smoke lane).  ``REPRO_SMOKE=1`` shrinks the sweep to the
smallest size that still exercises the quality assertions (the CI smoke
step).
"""

import os

from repro.harness import candidate_search_comparison
from repro.harness.reporting import format_search_comparison

from conftest import FULL, append_trend, run_once

SMOKE = os.environ.get("REPRO_SMOKE", "0") not in ("0", "", "false")
SIZES = (256,) if SMOKE else \
    ((256, 512, 1024, 2048, 4096, 8192) if FULL else (256, 512, 1024))
TOP_K = 2


def test_candidate_search_scaling(benchmark):
    result = run_once(benchmark, candidate_search_comparison,
                      sizes=SIZES, top_k=TOP_K, max_queries=128)
    print()
    print(format_search_comparison(result))
    largest = max(SIZES)
    for strategy in ("size_buckets", "minhash_lsh"):
        benchmark.extra_info[f"{strategy}_speedup_at_{largest}"] = round(
            result.speedup_over_exhaustive(strategy, largest), 2)
    lsh_rows = result.for_strategy("minhash_lsh")
    benchmark.extra_info["minhash_lsh_min_quality"] = round(
        min(row.quality for row in lsh_rows), 3)
    for row in lsh_rows:
        append_trend("candidate_search", num_functions=row.num_functions,
                     strategy=row.strategy,
                     scan_fraction=round(row.scan_fraction, 4),
                     recall=round(row.recall, 4),
                     quality=round(row.quality, 4),
                     speedup=round(result.speedup_over_exhaustive(
                         row.strategy, row.num_functions), 3))
    # The acceptance bar for the subsystem, measured at benchmark scale.
    # (Deterministic quantities only — the wall-clock speedup is recorded in
    # extra_info above but not asserted, so CI timing noise cannot fail it.)
    for row in lsh_rows:
        assert row.quality >= 0.9, (row.num_functions, row.quality)
        assert row.scan_fraction < 0.25, (row.num_functions, row.scan_fraction)
    # The exhaustive index is exact and pruned: a return to the full scan
    # (scan fraction 1.0) fails here.
    for row in result.for_strategy("exhaustive"):
        assert row.recall == 1.0 and row.quality == 1.0, row
        assert row.scan_fraction < 0.25, (row.num_functions, row.scan_fraction)
