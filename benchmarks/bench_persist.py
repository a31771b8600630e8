"""Warm-start persistence: cold vs warm pipeline runs over a shared store.

Not a paper figure — this benchmarks the ``repro.persist`` subsystem that
gives repeated pipeline runs a content-addressed on-disk home for their
process-external artifacts (fingerprints and cost-model function sizes).
For each module size it runs the identical pipeline twice against one
artifact store: the first (cold) run populates it, the second (warm) run
loads everything whose content digest the store already knows.

Expected shape — and the subsystem's acceptance bar, asserted below:

* the warm run's merge report is **bit-identical** to the cold run's
  (digests compared field by field, wall-clock excluded);
* the warm run computes **>= 80% fewer** fingerprints than the cold run
  (measured with ``repro.analysis.counters``, so the claim is counted, not
  assumed — in practice the warm run computes zero);
* cold-vs-warm wall time is recorded in ``extra_info`` but not asserted, so
  CI timing noise cannot fail the benchmark.

``REPRO_SMOKE=1`` shrinks the sweep to one small module (the CI warm-start
smoke step); ``REPRO_FULL=1`` extends it.
"""

import os

from repro.harness import warm_start_comparison
from repro.harness.reporting import format_store_stats, format_warm_start

from conftest import FULL, append_trend, run_once

SMOKE = os.environ.get("REPRO_SMOKE", "0") not in ("0", "", "false")
SIZES = (96,) if SMOKE else ((128, 256, 512) if FULL else (128, 256))


def test_warm_start_pipeline(benchmark, tmp_path):
    result = run_once(benchmark, warm_start_comparison,
                      sizes=SIZES, cache_dir=str(tmp_path))
    print()
    print(format_warm_start(result))
    for row in result.rows:
        if row.persist_stats is not None:
            print(f"  {row.num_functions} fns {row.mode}: "
                  f"{format_store_stats(row.persist_stats)}")
    largest = max(SIZES)
    benchmark.extra_info["warm_speedup"] = round(result.speedup(largest), 2)
    benchmark.extra_info["fingerprint_reduction"] = round(
        result.fingerprint_reduction(largest), 3)
    warm = result.row(largest, "warm")
    append_trend(
        "persist_warm_start", num_functions=largest,
        fingerprint_reduction=round(result.fingerprint_reduction(largest), 4),
        warm_hit_rate=round(warm.persist_stats.hit_rate, 4)
        if warm is not None and warm.persist_stats is not None else 0.0,
        warm_recomputed=warm.fingerprints_computed if warm is not None else 0,
        speedup=round(result.speedup(largest), 3),
        digests_match=all(result.digests_match(s) for s in SIZES))
    # The acceptance bar for the subsystem.  (Deterministic quantities only —
    # wall-clock speedup is recorded in extra_info but not asserted.)
    for size in SIZES:
        assert result.digests_match(size), \
            f"cold and warm merge reports diverged at {size} functions"
        cold = result.row(size, "cold")
        assert cold is not None and cold.fingerprints_computed > 0, \
            f"cold run at {size} functions computed no fingerprints"
        fingerprint_reduction = result.fingerprint_reduction(size)
        assert fingerprint_reduction >= 0.8, (size, fingerprint_reduction)
