"""Parity across the technique matrix.

{salssa, fmsa}: each cell must replay a short random delta stream
bit-identically to a cold run over the final module.  Kept deliberately
small per cell — the long-stream coverage lives in
``test_pipeline_parity.py``; this file's job is the cross product.
"""

import random

import pytest

from repro.harness import run_pipeline, run_pipeline_incremental
from repro.harness.experiments import merge_report_digest, search_workload
from repro.incremental import copy_module
from repro.workloads import random_delta


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_delta_stream_parity(technique):
    module = search_workload(10)
    rng = random.Random(31)
    kwargs = dict(benchmark="matrix", technique=technique)
    run = run_pipeline_incremental(module, **kwargs)
    for _ in range(2):
        random_delta(module, rng, edits=2)
        run = run_pipeline_incremental(module, run.state, **kwargs)
    cold = run_pipeline(copy_module(module), "matrix", technique=technique)
    assert merge_report_digest(run.report) == \
        merge_report_digest(cold.report)
    assert run.stats.pairs_reused > 0
