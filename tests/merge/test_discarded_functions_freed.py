"""What the merge pass throws away is freed.

Constants and undefs keep no use list, and a function that leaves for good
(a rejected trial merge, a rolled-back merge, an FMSA scratch clone) drops
its references to the values that outlive it.  So no live value reaches into
a discarded body, and the collector frees it.
"""

import gc
import random
import weakref

import pytest

import repro.merge.fmsa as fmsa_module
from repro.harness.experiments import search_workload
from repro.harness.pipeline import run_pipeline_incremental
from repro.incremental import copy_module
from repro.ir import parse_module
from repro.ir.function import Function
from repro.ir.printer import print_function
from repro.merge.fmsa import FMSAMerger
from repro.merge.pass_manager import FunctionMergingPass, MergePassOptions
from repro.merge.salssa.codegen import MergeError, SalSSAMerger, _MergeState
from repro.workloads.mutate import random_delta


def survivors(refs):
    gc.collect()
    return [ref() for ref in refs if ref() is not None]


def capture_merged(monkeypatch):
    """Weak references to every function the SalSSA code generator builds
    (FMSA builds its merged functions through it too)."""
    built = []
    merge = SalSSAMerger.merge

    def capturing_merge(self, *args, **kwargs):
        merged = merge(self, *args, **kwargs)
        built.append(weakref.ref(merged.function))
        return merged

    monkeypatch.setattr(SalSSAMerger, "merge", capturing_merge)
    return built


def capture_scratch_clones(monkeypatch):
    clones = []
    clone_function = fmsa_module.clone_function

    def capturing_clone(*args, **kwargs):
        clone, value_map = clone_function(*args, **kwargs)
        clones.append(weakref.ref(clone))
        return clone, value_map

    monkeypatch.setattr(fmsa_module, "clone_function", capturing_clone)
    return clones


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_rejected_merged_functions_are_freed(monkeypatch, technique):
    built = capture_merged(monkeypatch)
    module = search_workload(48, seed=7)
    report = FunctionMergingPass(MergePassOptions(technique=technique)).run(module)
    assert any(not record.committed for record in report.records)
    alive = survivors(built)
    assert all(function.parent is module for function in alive)
    assert len(alive) == report.profitable_merges


def test_fmsa_scratch_clones_are_freed(monkeypatch):
    clones = capture_scratch_clones(monkeypatch)
    module = search_workload(48, seed=7)
    report = FunctionMergingPass(MergePassOptions(technique="fmsa")).run(module)
    assert len(clones) == 2 * report.attempts
    assert survivors(clones) == []


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_rolled_back_merges_are_freed(monkeypatch, technique):
    clones = capture_scratch_clones(monkeypatch)
    partial = []

    def faulty_repair(state):
        partial.append(weakref.ref(state.merged))
        raise RuntimeError("injected fault in repair_ssa")

    monkeypatch.setattr(_MergeState, "repair_ssa", faulty_repair)
    module = search_workload(32, seed=7)
    first, second = module.defined_functions()[:2]
    merger = SalSSAMerger(module) if technique == "salssa" \
        else FMSAMerger(module)
    try:
        merger.merge(first, second)
    except MergeError:
        pass
    else:
        pytest.fail("the injected fault did not surface")
    assert len(partial) == 1
    assert survivors(partial + clones) == []


def test_dropped_module_copies_are_freed():
    module = search_workload(32, seed=7)
    copies = []
    for _ in range(3):
        copy = copy_module(module)
        copies.append(weakref.ref(copy))
        del copy
    assert survivors(copies) == []


def count_functions():
    gc.collect()
    return sum(1 for value in gc.get_objects() if isinstance(value, Function))


def test_live_session_function_count_stays_flat():
    module = search_workload(48, seed=7)
    rng = random.Random(3)
    run = run_pipeline_incremental(module, benchmark="flat")
    counts = []
    for _ in range(20):
        while not random_delta(module, rng, edits=1):
            pass
        run = run_pipeline_incremental(module, run.state, benchmark="flat")
        counts.append(count_functions())
    # Edits that add a function add it and its incremental-state copy; a
    # leak keeps every delta's discarded merges and copies besides.
    assert counts[-1] - counts[4] <= 40, counts


def test_reregistered_function_keeps_body_and_uses():
    """The pass removes a spliced function and adds it back under a new
    name, so leaving a module must not drop a function's references."""
    module = parse_module("""
declare i32 @ext(i32)

define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = call i32 @ext(i32 %a)
  ret i32 %b
}
""")
    function = module.get_function("f")
    callee = module.get_function("ext")
    text = print_function(function)
    module.remove_function(function)
    function.name = "g"
    module.add_function(function)
    assert print_function(function) == text.replace("@f(", "@g(")
    assert [user.function for user in callee.users()] == [function]
