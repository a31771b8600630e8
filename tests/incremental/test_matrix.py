"""Parity across the full configuration matrix (ISSUE 7 acceptance).

{salssa, fmsa} x {cold state, warm cache_dir restart}: every cell must
replay a short random delta stream bit-identically to a cold run over the
final module.  Kept deliberately small per cell — the long-stream coverage
lives in ``test_pipeline_parity.py``; this file's job is the cross product.
"""

import random

import pytest

from repro.harness import run_pipeline, run_pipeline_incremental
from repro.harness.experiments import merge_report_digest, search_workload
from repro.incremental import copy_module
from repro.workloads import random_delta


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_delta_stream_parity(technique, tmp_path):
    module = search_workload(10)
    rng = random.Random(31)
    kwargs = dict(benchmark="matrix", technique=technique,
                  cache_dir=str(tmp_path))
    run = run_pipeline_incremental(module, **kwargs)
    state = run.state
    for _ in range(2):
        random_delta(module, rng, edits=2)
        run = run_pipeline_incremental(module, state, **kwargs)
    cold = run_pipeline(copy_module(module), "matrix", technique=technique)
    assert merge_report_digest(run.report) == \
        merge_report_digest(cold.report)

    # Warm restart: a fresh process bootstraps from the snapshot alone and
    # must continue the stream bit-identically.
    random_delta(module, rng, edits=2)
    resumed = run_pipeline_incremental(module, **kwargs)
    assert resumed.state is not state
    cold = run_pipeline(copy_module(module), "matrix", technique=technique)
    assert merge_report_digest(resumed.report) == \
        merge_report_digest(cold.report)
    assert resumed.stats.pairs_reused > 0
