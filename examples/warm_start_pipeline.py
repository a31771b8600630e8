#!/usr/bin/env python3
"""Warm-start pipelines: cross-run reuse through the artifact store.

Production use of function merging is repetitive: the same large module comes
back with a handful of changed functions, and everything the optimiser
derived last time — fingerprints, cost-model sizes — is still valid for the
unchanged majority.  `repro.persist` keys those artifacts
by content digest in an on-disk store, so only changed content is recomputed.

This example runs the same pipeline repeatedly against one `--cache-dir`:

1. a cold run populates the store,
2. warm runs load nearly everything (watch the store hit rate and the wall
   time drop),
3. reports are verified bit-identical across runs.

Run with:  PYTHONPATH=src python examples/warm_start_pipeline.py \
               [--cache-dir DIR] [--functions N] [--runs K]

Without --cache-dir a temporary directory is used (and thrown away, so every
invocation starts cold — point it at a real directory to warm across
invocations too).
"""

import argparse
import tempfile
import time

from repro.analysis.counters import track_constructions
from repro.harness.experiments import merge_report_digest, search_workload
from repro.harness.pipeline import run_pipeline
from repro.harness.reporting import format_store_stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="artifact store root (default: fresh temp dir)")
    parser.add_argument("--functions", type=int, default=256,
                        help="module size (default 256)")
    parser.add_argument("--runs", type=int, default=3,
                        help="pipeline runs against the shared store (default 3)")
    args = parser.parse_args()

    temp_dir = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        temp_dir = tempfile.TemporaryDirectory(prefix="repro-persist-")
        cache_dir = temp_dir.name
    print(f"artifact store: {cache_dir}\n")

    digests = []
    try:
        for run_index in range(args.runs):
            module = search_workload(args.functions, seed=7)
            with track_constructions() as tracker:
                started = time.perf_counter()
                result = run_pipeline(module, "warm-start", technique="salssa",
                                      threshold=1, target="arm_thumb",
                                      cache_dir=cache_dir)
                elapsed = time.perf_counter() - started
            digests.append(merge_report_digest(result.report))
            label = "cold" if run_index == 0 else "warm"
            print(f"--- run {run_index + 1} ({label}) ---")
            print(f"wall {elapsed:.2f}s, "
                  f"{result.report.profitable_merges} merges, "
                  f"{tracker.delta('Fingerprint')} fingerprints computed")
            print(format_store_stats(result.persist_stats))
            print()
        assert all(digest == digests[0] for digest in digests), \
            "warm runs must be bit-identical to the cold run"
        print("all runs produced bit-identical merge reports")
    finally:
        if temp_dir is not None:
            temp_dir.cleanup()


if __name__ == "__main__":
    main()
