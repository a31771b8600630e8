"""The resident merge service: warm-job latency and batch digest parity.

Not a paper figure — this benchmarks ``repro.service``, the daemon that
keeps pipeline state, attempt caches and telemetry resident between jobs.
Two claims are measured, per technique:

1. **Parity** — every service job's report digest is bit-identical to a
   cold ``run_pipeline`` over the same module text, cold bootstrap and warm
   patches alike (asserted for both salssa and fmsa);
2. **Warm latency** — once a session is bootstrapped, a single-function
   patch job completes >= 5x faster than the cold batch run over the same
   edited module (the ISSUE's acceptance bar: asserted under
   ``REPRO_FULL=1`` at the 256-function acceptance size, reported
   otherwise so starved CI runners cannot fail on timing noise).

``REPRO_SMOKE=1`` shrinks the sweep to one small module; ``REPRO_TREND=1``
appends p50/p95 latency, jobs/sec and the warm-vs-cold ratio so
``plot_trend.py`` renders a service lane and ``check_trend.py`` gates it.
"""

import os
import random
import time

from repro.harness.experiments import search_workload
from repro.harness.pipeline import run_pipeline
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.obs import report_digest_hex
from repro.service import MergeService, ServiceClient
from repro.workloads import mutate_constant

from conftest import FULL, append_trend, run_once

SMOKE = os.environ.get("REPRO_SMOKE", "0") not in ("0", "", "false")
SIZES = (48,) if SMOKE else ((128, 256) if FULL else (128,))

#: The FULL-only acceptance bar: warm service jobs vs cold batch runs on a
#: 256-function module (ISSUE: >= 5x at 256+ functions).
ACCEPTANCE_SIZE = 256
MIN_WARM_SPEEDUP = 5.0

#: Parity sweep cells.
TECHNIQUES = ("salssa", "fmsa")

#: Warm patch jobs per session (latency sample size).
WARM_JOBS = 3


def _edit_stream(size, seed, edits):
    """Module text snapshots plus the single-function patch for each edit."""
    module = search_workload(size, seed=seed)
    rng = random.Random(seed)
    snapshots = [print_module(module)]
    patches = []
    for _ in range(edits):
        functions = [f for f in module.functions if not f.is_declaration()]
        edited = False
        for target in rng.sample(functions, len(functions)):
            if mutate_constant(target, rng):
                patches.append(print_function(target))
                edited = True
                break
        assert edited, "workload has no mutable constant — bad setup"
        snapshots.append(print_module(module))
    return snapshots, patches


def service_comparison(sizes):
    rows = []
    for size in sizes:
        for technique in TECHNIQUES:
            snapshots, patches = _edit_stream(size, seed=size,
                                              edits=WARM_JOBS)
            with MergeService() as service:
                with ServiceClient(service.host, service.port,
                                   timeout=600.0) as client:
                    cold_started = time.perf_counter()
                    responses = [client.submit(
                        "bench", module=snapshots[0],
                        technique=technique)]
                    cold_job_seconds = time.perf_counter() - cold_started
                    warm_seconds = []
                    for patch in patches:
                        started = time.perf_counter()
                        responses.append(client.submit(
                            "bench", functions=[patch]))
                        warm_seconds.append(time.perf_counter() - started)
            # Batch reference: a cold run over the *final* edited module,
            # timed, plus parity digests for every intermediate snapshot.
            batch_started = time.perf_counter()
            final_batch = run_pipeline(parse_module(snapshots[-1]),
                                       "bench", technique=technique)
            batch_seconds = time.perf_counter() - batch_started
            digests_match = responses[-1]["digest"] \
                == report_digest_hex(final_batch.report)
            for snapshot, response in zip(snapshots[:-1], responses[:-1]):
                batch = run_pipeline(parse_module(snapshot), "bench",
                                     technique=technique)
                digests_match = digests_match and \
                    response["digest"] == report_digest_hex(batch.report)
            warm_p50 = sorted(warm_seconds)[len(warm_seconds) // 2]
            rows.append({
                "num_functions": size,
                "technique": technique,
                "cold_job_seconds": cold_job_seconds,
                "warm_p50_seconds": warm_p50,
                "batch_seconds": batch_seconds,
                "warm_cold_ratio": batch_seconds / warm_p50
                if warm_p50 else 0.0,
                "digests_match": digests_match,
            })
    return rows


def test_service_warm_latency_and_parity(benchmark):
    rows = run_once(benchmark, service_comparison, SIZES)
    print()
    for row in rows:
        print(f"  {row['num_functions']:4d} fns {row['technique']:<6}: "
              f"warm p50 "
              f"{row['warm_p50_seconds']:.3f}s vs batch "
              f"{row['batch_seconds']:.3f}s "
              f"({row['warm_cold_ratio']:.1f}x), "
              f"digests_match={row['digests_match']}")
    largest = max(SIZES)
    newest = next(r for r in rows if r["num_functions"] == largest
                  and r["technique"] == "salssa")
    benchmark.extra_info["warm_cold_ratio"] = round(
        newest["warm_cold_ratio"], 2)
    append_trend(
        "service", num_functions=largest,
        warm_cold_ratio=round(newest["warm_cold_ratio"], 3),
        warm_p50_seconds=round(newest["warm_p50_seconds"], 5),
        batch_seconds=round(newest["batch_seconds"], 5),
        digests_match=all(r["digests_match"] for r in rows))

    # Bit-identity with batch runs is the contract: every cell, every mode.
    for row in rows:
        assert row["digests_match"], \
            f"service and batch reports diverged: {row}"
    # The latency bar binds only at the acceptance size (FULL runs).
    for row in rows:
        if row["num_functions"] >= ACCEPTANCE_SIZE:
            assert row["warm_cold_ratio"] >= MIN_WARM_SPEEDUP, row
