"""Per-attempt clean-up against the implementations it replaced.

The references below are the duplicate-phi rescan that rebuilt every
signature at every leader, the SSA-reconstruction walk that recorded the
reaching value at every instruction of the function (``current_at``), the
register promotion that scanned every block for every slot, and the CFG and
phi accessors that rebuilt their answers through generic operand access.
Merges and whole merge passes run once with the current code and once with
the references patched in; the printed IR (local names included) and the
statistics each step returns must be the same.
"""

import random
from dataclasses import asdict
from typing import Dict, List, Set

import pytest

import repro.analysis.cfg as cfg_module
import repro.merge.fmsa as fmsa_module
import repro.merge.salssa.codegen as codegen_module
import repro.transforms.mem2reg as mem2reg_module
import repro.transforms.simplify as simplify_module
from repro.harness.experiments import merge_report_digest
from repro.ir import parse_module
from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import (
    BranchInst, Instruction, LoadInst, PhiInst, StoreInst, TerminatorInst,
)
from repro.ir.printer import print_function, print_module
from repro.ir.types import LabelType
from repro.ir.values import UndefValue, Value
from repro.merge.fmsa import FMSAMerger
from repro.merge.pass_manager import FunctionMergingPass, MergePassOptions
from repro.merge.salssa.codegen import SalSSAMerger
from repro.transforms.mem2reg import ReconstructionResult, SSAReconstructor
from repro.transforms.simplify import SimplifyStats, _phi_unique_value
from repro.workloads.generator import generate_program, simple_spec
from repro.workloads.mibench_like import get_mibench
from repro.workloads.spec_like import get_benchmark


# ---------------------------------------------------------------------------
# References: the replaced implementations
# ---------------------------------------------------------------------------

def reference_phi_signature(phi):
    def value_key(value):
        if isinstance(value, simplify_module.Constant):
            return ("const", value.type, value.value)
        if isinstance(value, UndefValue):
            return ("undef", value.type)
        return ("id", id(value))

    return tuple((value_key(value), id(block)) for value, block in
                 sorted(phi.incoming(), key=lambda pair: id(pair[1])))


def reference_simplify_phis(function, stats):
    changed = False
    for block in function.blocks:
        preds = block.predecessors()
        for phi in list(block.phis()):
            for incoming_block in list(phi.incoming_blocks()):
                if incoming_block not in preds:
                    phi.remove_incoming_for_block(incoming_block)
            unique = _phi_unique_value(phi)
            if unique is not None:
                phi.replace_all_uses_with(unique)
                phi.erase_from_parent()
                stats.removed_phis += 1
                changed = True
        remaining = block.phis()
        for index, phi in enumerate(remaining):
            if phi.parent is None:
                continue
            signature = reference_phi_signature(phi)
            for other in remaining[index + 1:]:
                if other.parent is None:
                    continue
                if reference_phi_signature(other) == signature and other.type == phi.type:
                    other.replace_all_uses_with(phi)
                    other.erase_from_parent()
                    stats.removed_phis += 1
                    changed = True
    return changed


def reference_promote_one(function, alloca, domtree, reachable, preds, stats):
    stores = [u for u in alloca.users() if isinstance(u, StoreInst)]
    value_type = alloca.allocated_type

    def_blocks = {s.parent for s in stores if s.parent is not None}
    def_blocks &= reachable

    phis: Dict[BasicBlock, PhiInst] = {}
    if def_blocks:
        for block in domtree.iterated_dominance_frontier(def_blocks):
            if block not in reachable:
                continue
            phi = PhiInst(value_type, name=function.unique_name("mem2reg"))
            block.insert(0, phi)
            phis[block] = phi
            stats.inserted_phis += 1

    entry = function.entry_block
    outgoing_value: Dict[BasicBlock, Value] = {}
    undef = UndefValue(value_type)
    for block in domtree.dominator_tree_preorder():
        idom = domtree.immediate_dominator(block)
        current = phis.get(block) or (
            undef if block is entry else
            outgoing_value.get(idom, undef) if idom is not None else undef)
        for inst in list(block.instructions):
            if isinstance(inst, LoadInst) and inst.pointer is alloca:
                inst.replace_all_uses_with(current)
                inst.erase_from_parent()
                stats.removed_loads += 1
            elif isinstance(inst, StoreInst) and inst.pointer is alloca:
                current = inst.value
                inst.erase_from_parent()
                stats.removed_stores += 1
        outgoing_value[block] = current

    for block, phi in phis.items():
        for pred in preds.get(block, []):
            phi.add_incoming(outgoing_value.get(pred, undef), pred)
    alloca.erase_from_parent()
    mem2reg_module._prune_trivial_phis(list(phis.values()), stats)


class ReferenceReconstructor(SSAReconstructor):
    """``reconstruct`` with the per-instruction ``current_at`` walk."""

    def reconstruct(self, definitions, value_type=None):
        result = ReconstructionResult()
        definitions = [d for d in definitions if d.parent is not None]
        if not definitions:
            return result
        if value_type is None:
            value_type = definitions[0].type
        entry = self.function.entry_block
        if entry is None:
            return result
        use_records = []
        definition_set = set(definitions)
        for definition in definitions:
            for user, index in definition.uses:
                if isinstance(user, Instruction) and user not in definition_set:
                    use_records.append((user, index, definition))
        if not use_records:
            return result
        epoch = self.function.mutation_epoch
        def_blocks: Set[BasicBlock] = {entry}
        def_blocks.update(d.parent for d in definitions if d.parent in self.reachable)
        live_in = self._reference_live_in(definition_set, use_records)

        phis: Dict[BasicBlock, PhiInst] = {}
        for block in self.domtree.iterated_dominance_frontier(def_blocks):
            if block not in self.reachable or block not in live_in:
                continue
            phi = PhiInst(value_type, name=self.function.unique_name("ssa.repair"))
            block.insert(0, phi)
            phis[block] = phi
            result.inserted_phis.append(phi)

        undef = UndefValue(value_type)
        outgoing: Dict[BasicBlock, Value] = {}
        current_at: Dict[Instruction, Value] = {}
        for block in self.domtree.dominator_tree_preorder():
            idom = self.domtree.immediate_dominator(block)
            if block in phis:
                current = phis[block]
            elif block is entry:
                current = undef
            elif idom is not None:
                current = outgoing.get(idom, undef)
            else:
                current = undef
            for inst in block.instructions:
                current_at[inst] = current
                if inst in definition_set:
                    current = inst
            outgoing[block] = current

        for user, index, definition in use_records:
            if isinstance(user, PhiInst):
                replacement = outgoing.get(user.get_operand(index + 1), undef)
            else:
                replacement = current_at.get(user, undef)
            if replacement is user:
                replacement = definition
            if replacement is not definition or replacement is not user.get_operand(index):
                user.set_operand(index, replacement)
                result.rewritten_uses += 1

        for block, phi in phis.items():
            for pred in self.preds.get(block, []):
                phi.add_incoming(outgoing.get(pred, undef), pred)
        self.manager.mark_preserved(self.function, mem2reg_module.CFG_ANALYSES,
                                    since=epoch)
        return result

    def _reference_live_in(self, definition_set, use_records):
        live_in: Set[BasicBlock] = set()
        worklist: List[BasicBlock] = []

        def defs_before(block, boundary):
            for inst in block.instructions:
                if inst is boundary:
                    return False
                if inst in definition_set:
                    return True
            return False

        def mark_live_out(block):
            if any(inst in definition_set for inst in block.instructions):
                return
            if block not in live_in:
                live_in.add(block)
                worklist.append(block)

        for user, index, _definition in use_records:
            if user.parent is None:
                continue
            if isinstance(user, PhiInst):
                incoming_block = user.get_operand(index + 1)
                if isinstance(incoming_block, BasicBlock):
                    mark_live_out(incoming_block)
                continue
            if not defs_before(user.parent, user) and user.parent not in live_in:
                live_in.add(user.parent)
                worklist.append(user.parent)
        while worklist:
            block = worklist.pop()
            for pred in self.preds.get(block, []):
                mark_live_out(pred)
        return live_in


def reference_users(value):
    seen = []
    for user, _ in value.uses:
        if user not in seen:
            seen.append(user)
    return seen


def reference_terminator_successors(terminator):
    return [op for op in terminator.operand_values() if isinstance(op.type, LabelType)]


def reference_successors(block):
    terminator = block.terminator
    if terminator is None:
        return []
    return [b for b in reference_terminator_successors(terminator)
            if isinstance(b, BasicBlock)]


def reference_predecessors(block):
    preds = []
    for user, _ in block.uses:
        if isinstance(user, TerminatorInst) and user.parent is not None:
            source = user.parent
            if source not in preds and block in reference_successors(source):
                preds.append(source)
    return preds


def reference_cfg_successors(block):
    result = []
    for successor in block.successors():
        if successor not in result:
            result.append(successor)
    return result


def reference_incoming(phi):
    return [(phi.get_operand(index), phi.get_operand(index + 1))
            for index in range(0, phi.num_operands(), 2)]


def reference_incoming_value_for_block(phi, block):
    for value, incoming_block in reference_incoming(phi):
        if incoming_block is block:
            return value
    return None


def use_reference_code(patcher) -> None:
    """Patch every replaced implementation back in."""
    patcher.setattr(simplify_module, "_simplify_phis", reference_simplify_phis)
    patcher.setattr(mem2reg_module, "_promote_one", reference_promote_one)
    patcher.setattr(mem2reg_module, "SSAReconstructor", ReferenceReconstructor)
    patcher.setattr(codegen_module, "SSAReconstructor", ReferenceReconstructor)
    patcher.setattr(Value, "users", reference_users)
    patcher.setattr(TerminatorInst, "successors", reference_terminator_successors)
    patcher.setattr(BasicBlock, "successors", reference_successors)
    patcher.setattr(BasicBlock, "predecessors", reference_predecessors)
    patcher.setattr(cfg_module, "successors", reference_cfg_successors)
    patcher.setattr(PhiInst, "incoming", reference_incoming)
    patcher.setattr(PhiInst, "incoming_values",
                    lambda phi: [value for value, _ in reference_incoming(phi)])
    patcher.setattr(PhiInst, "incoming_blocks",
                    lambda phi: [block for _, block in reference_incoming(phi)])
    patcher.setattr(PhiInst, "incoming_value_for_block",
                    reference_incoming_value_for_block)


def record_steps(patcher, log: list) -> None:
    """Log what every promotion, simplification and reconstruction returns."""
    simplify = simplify_module.simplify_function
    promote = mem2reg_module.promote_allocas
    reconstructor = codegen_module.SSAReconstructor

    def recorded_simplify(function, manager=None):
        stats = simplify(function, manager=manager)
        log.append(("simplify", function.name, asdict(stats)))
        return stats

    def recorded_promote(function, manager=None):
        stats = promote(function, manager)
        log.append(("mem2reg", function.name, asdict(stats)))
        return stats

    class RecordedReconstructor(reconstructor):
        def reconstruct(self, definitions, value_type=None):
            result = super().reconstruct(definitions, value_type)
            log.append(("reconstruct", self.function.name,
                        [phi.name for phi in result.inserted_phis],
                        result.rewritten_uses))
            return result

    for module in (simplify_module, codegen_module, fmsa_module):
        patcher.setattr(module, "simplify_function", recorded_simplify)
    for module in (mem2reg_module, fmsa_module):
        patcher.setattr(module, "promote_allocas", recorded_promote)
    patcher.setattr(codegen_module, "SSAReconstructor", RecordedReconstructor)


# ---------------------------------------------------------------------------
# Seeded merges
# ---------------------------------------------------------------------------

MODULE_FACTORIES = {
    "generated": lambda: generate_program(simple_spec(
        "cleanup", seed=5, num_families=4, family_size=3, function_size=30,
        exception_density=0.2)),
    "mibench-like": lambda: get_mibench("sha").build(),
    "spec-like": lambda: get_benchmark("447.dealII").build(),
}


def merge_pair(monkeypatch, module, technique, first, second, reference):
    log: list = []
    with monkeypatch.context() as patcher:
        if reference:
            use_reference_code(patcher)
        record_steps(patcher, log)
        merger = SalSSAMerger(module) if technique == "salssa" else FMSAMerger(module)
        merged = merger.merge(first, second)
        text = print_function(merged.function)
        stats = asdict(merged.stats)
    module.remove_function(merged.function)
    for timing in ("alignment_seconds", "codegen_seconds"):
        del stats[timing]
    return text, stats, log


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
@pytest.mark.parametrize("module_name", sorted(MODULE_FACTORIES))
def test_seeded_merges_match_reference(monkeypatch, module_name, technique):
    module = MODULE_FACTORIES[module_name]()
    functions = module.defined_functions()
    rng = random.Random(17)
    pairs = [tuple(rng.sample(functions, 2)) for _ in range(10)]
    steps = 0
    for first, second in pairs:
        if first.return_type != second.return_type:
            continue
        new = merge_pair(monkeypatch, module, technique, first, second, False)
        old = merge_pair(monkeypatch, module, technique, first, second, True)
        assert new == old, (first.name, second.name)
        steps += len(new[2])
    assert steps > 0


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_whole_pass_matches_reference(monkeypatch, technique):
    """Merges of merged functions, thunks and the FMSA residue included."""
    results = []
    for reference in (False, True):
        module = MODULE_FACTORIES["generated"]()
        log: list = []
        with monkeypatch.context() as patcher:
            if reference:
                use_reference_code(patcher)
            record_steps(patcher, log)
            report = FunctionMergingPass(MergePassOptions(technique=technique)).run(module)
        results.append((merge_report_digest(report), print_module(module), log))
    assert results[0] == results[1]
    assert results[0][0][6] > 0  # something merged


# ---------------------------------------------------------------------------
# Handcrafted cases
# ---------------------------------------------------------------------------

ABSORPTION = """
define i32 @f(i32 %x) {
entry:
  br label %loop
loop:
  %z = phi i32 [ 2, %entry ], [ %m, %loop ]
  %p = phi i32 [ 0, %entry ], [ %n, %loop ]
  %q = phi i32 [ 0, %entry ], [ %n, %loop ]
  %r = phi i32 [ 1, %entry ], [ %p, %loop ]
  %s = phi i32 [ 1, %entry ], [ %q, %loop ]
  %n = add i32 %r, %s
  %m = add i32 %n, %z
  %c = icmp slt i32 %m, %x
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %m
}
"""


def simplify_phis_once(monkeypatch, text, reference=False):
    function = parse_module(text).get_function("f")
    stats = SimplifyStats()
    with monkeypatch.context() as patcher:
        if reference:
            use_reference_code(patcher)
        simplify_module._simplify_phis(function, stats)
    return print_function(function), stats


def test_absorbing_a_phi_makes_two_later_phis_identical(monkeypatch):
    """%z's turn memoizes %s; absorbing %q into %p rewrites %s to equal %r,
    which %r's turn must then see."""
    new = simplify_phis_once(monkeypatch, ABSORPTION)
    assert new == simplify_phis_once(monkeypatch, ABSORPTION, reference=True)
    text, stats = new
    assert stats.removed_phis == 2
    assert "%q = " not in text and "%s = " not in text


def test_absorption_case_detects_a_missing_invalidation(monkeypatch):
    """With the users of an absorbed phi left in the memo, %s keeps its stale
    signature and survives the sweep, so the case above fails."""
    expected = simplify_phis_once(monkeypatch, ABSORPTION, reference=True)
    with monkeypatch.context() as patcher:
        # The rescan reads users() only to drop memo entries.
        patcher.setattr(PhiInst, "users", lambda phi: [])
        mutated = simplify_phis_once(monkeypatch, ABSORPTION)
    assert mutated != expected
    assert "%s = " in mutated[0]


RECONSTRUCTION_CASES = {
    # A definition in an unreachable block and a use after it there, plus a
    # use of the reachable definition: both unreachable uses read undef.
    "unreachable-use": ("""
define i32 @f(i32 %x) {
entry:
  %d = add i32 %x, 1
  br label %exit
dead:
  %d2 = add i32 %x, 3
  %u = add i32 %d2, %d
  br label %exit
exit:
  ret i32 %d
}
""", ["d", "d2"]),
    # A coalesced pair defined in one block: a use between the definitions
    # reads the first, a use after both reads the second.
    "use-after-both": ("""
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %u1 = add i32 %a, 0
  %b = add i32 %x, 2
  %u2 = add i32 %a, %b
  ret i32 %u2
}
""", ["a", "b"]),
    # A phi whose incoming block is unreachable reads undef on that edge.
    "unreachable-incoming": ("""
define i32 @f(i32 %x) {
entry:
  %d = add i32 %x, 1
  br label %join
dead:
  br label %join
join:
  %p = phi i32 [ %d, %entry ], [ %d, %dead ]
  ret i32 %p
}
""", ["d"]),
    # Definitions on both sides of a diamond: the join needs a repair phi.
    "diamond": ("""
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %left, label %right
left:
  %a = add i32 %x, 1
  br label %join
right:
  %b = add i32 %x, 2
  br label %join
join:
  %u = add i32 %a, %b
  ret i32 %u
}
""", ["a", "b"]),
}


def reconstruct_once(monkeypatch, text, names, reference=False):
    function = parse_module(text).get_function("f")
    definitions = [inst for inst in function.instructions() if inst.name in names]
    with monkeypatch.context() as patcher:
        if reference:
            use_reference_code(patcher)
        result = mem2reg_module.SSAReconstructor(function).reconstruct(definitions)
    return function, ([phi.name for phi in result.inserted_phis], result.rewritten_uses)


@pytest.mark.parametrize("case", sorted(RECONSTRUCTION_CASES))
def test_reconstruction_cases_match_reference(monkeypatch, case):
    text, names = RECONSTRUCTION_CASES[case]
    new, new_result = reconstruct_once(monkeypatch, text, names)
    old, old_result = reconstruct_once(monkeypatch, text, names, reference=True)
    assert print_function(new) == print_function(old)
    assert new_result == old_result


def _instruction(function, name) -> Instruction:
    return next(inst for inst in function.instructions() if inst.name == name)


def test_unreachable_uses_read_undef(monkeypatch):
    text, names = RECONSTRUCTION_CASES["unreachable-use"]
    function, _ = reconstruct_once(monkeypatch, text, names)
    use = _instruction(function, "u")
    assert all(isinstance(operand, UndefValue) for operand in use.operands)


def test_use_after_both_definitions_reads_the_second(monkeypatch):
    text, names = RECONSTRUCTION_CASES["use-after-both"]
    function, _ = reconstruct_once(monkeypatch, text, names)
    first, second = _instruction(function, "a"), _instruction(function, "b")
    assert _instruction(function, "u1").operands[0] is first
    assert _instruction(function, "u2").operands[:2] == (second, second)


def test_unreachable_incoming_block_reads_undef(monkeypatch):
    text, names = RECONSTRUCTION_CASES["unreachable-incoming"]
    function, _ = reconstruct_once(monkeypatch, text, names)
    phi = _instruction(function, "p")
    dead = next(block for block in function.blocks if block.name == "dead")
    assert isinstance(phi.incoming_value_for_block(dead), UndefValue)
    assert phi.incoming_value_for_block(function.entry_block) is _instruction(function, "d")


def test_predecessors_ignore_a_terminator_left_mid_block():
    function = parse_module("""
define i32 @f(i32 %x) {
entry:
  br label %next
next:
  ret i32 %x
}
""").get_function("f")
    entry, target = function.blocks
    branch = entry.terminator
    # A construction state: the branch is no longer its block's terminator.
    entry.append(BranchInst(entry))
    assert branch.parent is entry and entry.instructions[-1] is not branch
    assert target.predecessors() == reference_predecessors(target) == []
    assert entry.predecessors() == reference_predecessors(entry) == [entry]
