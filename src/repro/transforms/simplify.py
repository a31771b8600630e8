"""CFG and instruction simplification.

This is the "Simplification" clean-up stage of the pipeline in the paper's
Figure 1.  It is not required for correctness but strongly affects the final
code size: the SalSSA code generator intentionally produces chains of tiny
blocks connected by unconditional branches (§4.1) and relies on this pass to
fold them away.

The pass repeatedly applies, until a fixed point:

* removal of unreachable blocks,
* folding of conditional branches with constant conditions or identical
  targets,
* merging of a block into its single predecessor when that predecessor has a
  single successor (LLVM's ``SimplifyCFG`` block merging),
* removal of trivial phi-nodes and duplicate phi-nodes,
* constant folding of selects/xors over constants,
* dead instruction elimination (delegated to :mod:`repro.transforms.dce`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.cfg import reachable_blocks
from ..analysis.manager import FunctionAnalysisManager
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BranchInst,
    Instruction,
    LandingPadInst,
    PhiInst,
    SelectInst,
    SwitchInst,
)
from ..ir.module import Module
from ..ir.values import Constant, UndefValue, Value
from .dce import eliminate_dead_code


@dataclass
class SimplifyStats:
    """What the simplification pass changed."""

    removed_blocks: int = 0
    merged_blocks: int = 0
    folded_branches: int = 0
    removed_phis: int = 0
    folded_selects: int = 0
    removed_instructions: int = 0

    def total(self) -> int:
        return (self.removed_blocks + self.merged_blocks + self.folded_branches +
                self.removed_phis + self.folded_selects + self.removed_instructions)


#: Sweeps after which simplification stops even without a fixed point.
MAX_SWEEPS = 50


def simplify_function(function: Function,
                      manager: Optional[FunctionAnalysisManager] = None
                      ) -> SimplifyStats:
    """Run the simplification pipeline on one function until a fixed point.

    Simplification removes and merges blocks, so it preserves no analyses —
    a ``manager`` only serves its internal reachability queries (which hit the
    cache whenever the previous iteration left the function unchanged) and the
    delegated DCE's preservation declarations.
    """
    stats = SimplifyStats()
    if function.is_declaration():
        return stats
    for _ in range(MAX_SWEEPS):
        changed = False
        changed |= _remove_unreachable_blocks(function, stats, manager)
        changed |= _fold_constant_branches(function, stats)
        changed |= _simplify_phis(function, stats)
        changed |= _fold_selects(function, stats)
        changed |= _remove_dead_phi_webs(function, stats)
        changed |= _remove_forwarding_blocks(function, stats)
        changed |= _merge_straightline_blocks(function, stats)
        removed = eliminate_dead_code(function, manager)
        stats.removed_instructions += removed
        changed |= bool(removed)
        if not changed:
            break
    return stats


def simplify_module(module: Module,
                    manager: Optional[FunctionAnalysisManager] = None
                    ) -> Dict[Function, SimplifyStats]:
    """Simplify every defined function of a module."""
    return {f: simplify_function(f, manager=manager)
            for f in module.defined_functions()}


# ---------------------------------------------------------------------------
# Individual rewrites
# ---------------------------------------------------------------------------

def _remove_unreachable_blocks(function: Function, stats: SimplifyStats,
                               manager: Optional[FunctionAnalysisManager] = None
                               ) -> bool:
    reachable = manager.reachable(function) if manager is not None \
        else reachable_blocks(function)
    dead = [block for block in function.blocks if block not in reachable]
    if not dead:
        return False
    for block in dead:
        for successor in block.successors():
            for phi in successor.phis():
                phi.remove_incoming_for_block(block)
        block.erase_from_parent()
        stats.removed_blocks += 1
    return True


def _fold_constant_branches(function: Function, stats: SimplifyStats) -> bool:
    changed = False
    for block in list(function.blocks):
        terminator = block.terminator
        if isinstance(terminator, BranchInst) and terminator.is_conditional:
            condition = terminator.condition
            taken: Optional[BasicBlock] = None
            if isinstance(condition, Constant):
                taken = terminator.if_true if condition.value else terminator.if_false
            elif terminator.if_true is terminator.if_false:
                taken = terminator.if_true
            if taken is None:
                continue
            not_taken = terminator.if_false if taken is terminator.if_true else terminator.if_true
            if not_taken is not taken:
                for phi in not_taken.phis():
                    phi.remove_incoming_for_block(block)
            terminator.erase_from_parent()
            block.append(BranchInst(taken))
            stats.folded_branches += 1
            changed = True
        elif isinstance(terminator, SwitchInst) and isinstance(terminator.condition, Constant):
            value = terminator.condition.value
            taken = terminator.default
            for case_value, case_block in terminator.cases():
                if isinstance(case_value, Constant) and case_value.value == value:
                    taken = case_block
                    break
            for successor in set(terminator.successors()):
                if successor is not taken:
                    for phi in successor.phis():
                        phi.remove_incoming_for_block(block)
            terminator.erase_from_parent()
            block.append(BranchInst(taken))
            stats.folded_branches += 1
            changed = True
    return changed


def _simplify_phis(function: Function, stats: SimplifyStats) -> bool:
    changed = False
    for block in function.blocks:
        phis = block.phis()
        if not phis:
            continue
        preds = block.predecessors()
        for phi in phis:
            # Drop incoming entries whose block is no longer a predecessor.
            for incoming_block in list(phi.incoming_blocks()):
                if incoming_block not in preds:
                    phi.remove_incoming_for_block(incoming_block)
            unique = _phi_unique_value(phi)
            if unique is not None:
                phi.replace_all_uses_with(unique)
                phi.erase_from_parent()
                stats.removed_phis += 1
                changed = True
        # Merge identical phi-nodes (same incoming values from same blocks).
        # Signatures are memoized for this block: absorbing a phi rewrites
        # the operands of its users only, so their entries are dropped first.
        remaining = block.phis()
        if len(remaining) < 2:
            continue
        signatures: Dict[PhiInst, tuple] = {}
        for index, phi in enumerate(remaining):
            if phi.parent is None:
                continue
            signature = _memoized_signature(signatures, phi)
            for other in remaining[index + 1:]:
                if other.parent is None:
                    continue
                if _memoized_signature(signatures, other) == signature \
                        and other.type == phi.type:
                    for user in other.users():
                        signatures.pop(user, None)
                    other.replace_all_uses_with(phi)
                    other.erase_from_parent()
                    stats.removed_phis += 1
                    changed = True
    return changed


def _phi_unique_value(phi: PhiInst) -> Optional[Value]:
    unique: Optional[Value] = None
    for value, _ in phi.incoming():
        if value is phi:
            continue
        if unique is None:
            unique = value
        elif value is not unique:
            if isinstance(value, UndefValue) and isinstance(unique, UndefValue):
                continue
            if isinstance(value, Constant) and isinstance(unique, Constant) and value == unique:
                continue
            return None
    if phi.num_incoming() == 1:
        return phi.incoming_values()[0]
    if unique is not None and phi.num_incoming() > 0:
        # Only safe when every incoming entry is that same value/constant.
        if all(v is phi or v is unique or
               (isinstance(v, Constant) and isinstance(unique, Constant) and v == unique)
               for v in phi.incoming_values()):
            return unique
    return None


def _memoized_signature(signatures: Dict[PhiInst, tuple], phi: PhiInst) -> tuple:
    signature = signatures.get(phi)
    if signature is None:
        signature = signatures[phi] = _phi_signature(phi)
    return signature


def _value_key(value: Value):
    if isinstance(value, Constant):
        return ("const", value.type, value.value)
    if isinstance(value, UndefValue):
        return ("undef", value.type)
    return ("id", id(value))


def _phi_signature(phi: PhiInst) -> tuple:
    return tuple((_value_key(value), id(block)) for value, block in
                 sorted(phi.incoming(), key=lambda pair: id(pair[1])))


def _remove_dead_phi_webs(function: Function, stats: SimplifyStats) -> bool:
    """Remove phi-nodes that are only used by other phi-nodes in the same web.

    SSA reconstruction places phi-nodes at iterated dominance frontiers; when a
    value turns out not to be live past some join, the inserted phis keep each
    other alive in a cycle even though no real instruction reads them.  Plain
    DCE cannot break such cycles, so they are handled here.
    """
    phis = [inst for block in function.blocks for inst in block.phis()]
    if not phis:
        return False
    live: set = set()
    worklist = []
    for phi in phis:
        for user in phi.users():
            if not isinstance(user, PhiInst):
                live.add(phi)
                worklist.append(phi)
                break
    # Anything feeding a live phi is live as well.
    while worklist:
        current = worklist.pop()
        for value in current.incoming_values():
            if isinstance(value, PhiInst) and value not in live:
                live.add(value)
                worklist.append(value)
    dead = [phi for phi in phis if phi not in live]
    for phi in dead:
        phi.drop_all_operands()
    for phi in dead:
        phi.replace_all_uses_with(UndefValue(phi.type))
        if phi.parent is not None:
            phi.erase_from_parent()
        stats.removed_phis += 1
    return bool(dead)


def _fold_selects(function: Function, stats: SimplifyStats) -> bool:
    changed = False
    for block in function.blocks:
        for inst in list(block.instructions):
            if not isinstance(inst, SelectInst):
                continue
            replacement: Optional[Value] = None
            if isinstance(inst.condition, Constant):
                replacement = inst.if_true if inst.condition.value else inst.if_false
            elif inst.if_true is inst.if_false:
                replacement = inst.if_true
            if replacement is not None:
                inst.replace_all_uses_with(replacement)
                inst.erase_from_parent()
                stats.folded_selects += 1
                changed = True
    return changed


def _remove_forwarding_blocks(function: Function, stats: SimplifyStats) -> bool:
    """Remove blocks that contain nothing but an unconditional branch by
    redirecting their predecessors to the branch target (SimplifyCFG's
    ``TryToSimplifyUncondBranchFromEmptyBlock``)."""
    changed = False
    for block in list(function.blocks):
        if block.parent is None or block is function.entry_block:
            continue
        if len(block.instructions) != 1:
            continue
        terminator = block.terminator
        if not isinstance(terminator, BranchInst) or terminator.is_conditional:
            continue
        successor = terminator.if_true
        if not isinstance(successor, BasicBlock) or successor is block:
            continue
        preds = block.predecessors()
        successor_preds = successor.predecessors()
        # Folding would create duplicate phi edges if a predecessor already
        # reaches the successor directly; only fold when the phis agree.
        conflict = False
        for phi in successor.phis():
            through_block = phi.incoming_value_for_block(block)
            for pred in preds:
                if pred in successor_preds:
                    direct = phi.incoming_value_for_block(pred)
                    if direct is not through_block:
                        conflict = True
                        break
            if conflict:
                break
        if conflict or not preds:
            continue
        for phi in successor.phis():
            through_block = phi.incoming_value_for_block(block)
            phi.remove_incoming_for_block(block)
            for pred in preds:
                if phi.incoming_value_for_block(pred) is None:
                    phi.add_incoming(through_block if through_block is not None
                                     else UndefValue(phi.type), pred)
        for pred in preds:
            pred_terminator = pred.terminator
            if pred_terminator is not None:
                pred_terminator.replace_successor(block, successor)
        block.erase_from_parent()
        stats.removed_blocks += 1
        changed = True
    return changed


def _merge_straightline_blocks(function: Function, stats: SimplifyStats) -> bool:
    """Merge ``A -> B`` when A ends in an unconditional branch to B and B has
    no other predecessors (and no landing pad / entry constraints)."""
    changed = False
    for block in list(function.blocks):
        if block.parent is None:
            continue
        terminator = block.terminator
        if not isinstance(terminator, BranchInst) or terminator.is_conditional:
            continue
        successor = terminator.if_true
        if not isinstance(successor, BasicBlock) or successor is block:
            continue
        if successor is function.entry_block:
            continue
        preds = successor.predecessors()
        if len(preds) != 1 or preds[0] is not block:
            continue
        if any(isinstance(i, LandingPadInst) for i in successor.instructions):
            continue
        # Rewire phis in the successor: with a single predecessor they are
        # trivial and can be replaced by their incoming value.
        for phi in list(successor.phis()):
            incoming = phi.incoming_value_for_block(block)
            if incoming is None:
                incoming = UndefValue(phi.type)
            phi.replace_all_uses_with(incoming)
            phi.erase_from_parent()
            stats.removed_phis += 1
        terminator.erase_from_parent()
        for inst in list(successor.instructions):
            successor.remove_instruction(inst)
            block.append(inst)
        # Phis in the successors of the merged block must now name `block`.
        for next_successor in block.successors():
            for phi in next_successor.phis():
                phi.replace_incoming_block(successor, block)
        successor.replace_all_uses_with(block)
        successor.erase_from_parent()
        stats.merged_blocks += 1
        changed = True
    return changed
