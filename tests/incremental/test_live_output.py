"""A live session's output module equals a cold run's, after every delta.

Report digests cover decisions and sizes, not the code: a spliced body with
a wrong operand and the right size would pass them.  These tests compare the
module the incremental pass merged (``IncrementalRun.module``) with the one a
cold ``run_pipeline`` merges from the same edited input, over seeded
one-edit delta streams in three link orders.

SalSSA's output prints identically.  FMSA's differs only in the local value
names inside ``.fmsa`` merged functions, so for FMSA the tests compare each
function's name-independent content digest instead.
"""

import random

import pytest

from repro.harness import run_pipeline, run_pipeline_incremental
from repro.harness.experiments import search_workload
from repro.incremental import copy_module
from repro.ir.printer import print_module
from repro.workloads import random_delta

DELTAS = 8


def fingerprint_of(technique, module):
    """What must match: the printed module (SalSSA) or every function's
    content digest (FMSA)."""
    if technique == "salssa":
        return print_module(module)
    return {function.name: function.content_digest()
            for function in module.functions}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_live_output_equals_cold_output(technique, seed):
    module = search_workload(64, 7)
    random.Random(seed).shuffle(module.functions)
    rng = random.Random(seed)
    run = run_pipeline_incremental(module, benchmark="live",
                                   technique=technique)
    for delta in range(DELTAS):
        while not random_delta(module, rng, edits=1):
            pass
        run = run_pipeline_incremental(module, run.state, benchmark="live",
                                       technique=technique)
        reference = copy_module(module)
        run_pipeline(reference, "live", technique=technique)
        assert fingerprint_of(technique, run.module) \
            == fingerprint_of(technique, reference), f"delta {delta + 1}"
