"""A merge attempt that raises anything rolls back and is recorded as failed.

Faults are injected into SalSSA's SSA repair (which both techniques run) and
into FMSA's post-merge simplification.  The pass must finish, leave no
partly built merged function behind and keep a module that verifies.
"""

import itertools

import pytest

import repro.merge.fmsa as fmsa_module
from repro.harness.experiments import search_workload
from repro.ir.verifier import verify_module
from repro.merge.pass_manager import FunctionMergingPass, MergePassOptions
from repro.merge.salssa.codegen import MergeError, SalSSAMerger, _MergeState
from repro.obs import MetricsRegistry, attach_events
from repro.obs.events import REASON_MERGE_ERROR

FAULTY_CALL = 5


def inject_fault(monkeypatch, site: str, failed: list,
                 faulty_call: int = FAULTY_CALL) -> None:
    """Make the ``faulty_call``-th call at ``site`` raise a RuntimeError,
    recording the name of the merged function it was building."""
    calls = itertools.count(1)
    if site == "repair_ssa":
        repair_ssa = _MergeState.repair_ssa

        def faulty_repair(state):
            if next(calls) == faulty_call:
                failed.append(state.merged.name)
                raise RuntimeError("injected fault in repair_ssa")
            return repair_ssa(state)

        monkeypatch.setattr(_MergeState, "repair_ssa", faulty_repair)
    else:
        simplify = fmsa_module.simplify_function

        def faulty_simplify(function, manager=None):
            if next(calls) == faulty_call:
                failed.append(function.name)
                raise RuntimeError("injected fault in simplify_function")
            return simplify(function, manager=manager)

        monkeypatch.setattr(fmsa_module, "simplify_function", faulty_simplify)


@pytest.mark.parametrize("technique, site", [
    ("salssa", "repair_ssa"),
    ("fmsa", "repair_ssa"),
    ("fmsa", "simplify"),
])
def test_fault_rolls_back_and_records_merge_error(monkeypatch, technique, site):
    module = search_workload(32)
    failed: list = []
    inject_fault(monkeypatch, site, failed)
    registry = MetricsRegistry()
    log = attach_events(registry, True)

    report = FunctionMergingPass(MergePassOptions(technique=technique)).run(
        module, metrics=registry)

    assert len(failed) == 1
    assert failed[0] not in {function.name for function in module.functions}
    assert verify_module(module, raise_on_error=False) == []
    errors = [event.data for event in log.records("verdict")
              if event.data["reason"] == REASON_MERGE_ERROR]
    assert len(errors) == 1
    assert failed[0].startswith(f"{errors[0]['function']}.{errors[0]['candidate']}.")
    assert report.profitable_merges > 0


def test_merger_raises_merge_error_chained_from_the_fault(monkeypatch):
    module = search_workload(32)
    first, second = module.defined_functions()[:2]
    assert first.return_type == second.return_type
    failed: list = []
    inject_fault(monkeypatch, "repair_ssa", failed, faulty_call=1)
    names_before = [function.name for function in module.functions]

    with pytest.raises(MergeError) as raised:
        SalSSAMerger(module).merge(first, second)

    assert isinstance(raised.value.__cause__, RuntimeError)
    assert [function.name for function in module.functions] == names_before
