"""Register promotion (``mem2reg``) and SSA reconstruction.

Two closely related pieces live here:

* :func:`promote_allocas` — the classic Cytron et al. SSA-construction
  algorithm applied to promotable stack slots.  FMSA runs it after code
  generation to undo register demotion (paper Fig. 1).  Crucially, a slot is
  only *promotable* when every access uses the slot's address directly; merged
  stack accesses whose address is chosen by a ``select`` on the function
  identifier are **not** promotable — this is exactly the failure mode the
  paper's motivating example highlights (§3, Fig. 4).

* :class:`SSAReconstructor` — the "standard SSA construction algorithm"
  SalSSA relies on to restore the dominance property after code generation
  (§4.3) and the vehicle for phi-node coalescing (§4.4): a group of
  definitions registered under one name is treated as a single variable, a
  pseudo-definition of ``undef`` is added at the entry, phi-nodes are placed
  at the iterated dominance frontier and uses are rewired by a dominator-tree
  walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..analysis.cfg import predecessor_map, reachable_blocks
from ..analysis.dominators import DominatorTree
from ..analysis.manager import CFG_ANALYSES, FunctionAnalysisManager
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.types import Type
from ..ir.values import UndefValue, Value


# ---------------------------------------------------------------------------
# Promotable alloca detection
# ---------------------------------------------------------------------------

def is_promotable(alloca: AllocaInst) -> bool:
    """True if the stack slot can be rewritten into SSA registers.

    The slot address must only ever be used *directly* as the pointer operand
    of loads and stores.  Any other use — being stored as a value, passed to a
    call, fed through a ``select`` or GEP — escapes the address and blocks
    promotion (the paper's §3 "prevents promotion" case).
    """
    for user, index in alloca.uses:
        if isinstance(user, LoadInst) and user.pointer is alloca:
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca and user.value is not alloca:
            continue
        return False
    return True


@dataclass
class Mem2RegStats:
    """Bookkeeping about one register-promotion run."""

    promoted_allocas: int = 0
    unpromotable_allocas: int = 0
    removed_loads: int = 0
    removed_stores: int = 0
    inserted_phis: int = 0


def promote_allocas(function: Function,
                    manager: Optional[FunctionAnalysisManager] = None) -> Mem2RegStats:
    """Promote every promotable stack slot of ``function`` into SSA values.

    With a ``manager``, the CFG analyses are pulled from (and kept in) the
    shared cache: promotion inserts/removes only non-terminator instructions,
    so it declares :data:`~repro.analysis.manager.CFG_ANALYSES` preserved.
    Either way the dominator tree is built at most once per promotion round.
    """
    stats = Mem2RegStats()
    if function.is_declaration() or function.entry_block is None:
        return stats

    allocas = [inst for inst in function.instructions() if isinstance(inst, AllocaInst)]
    promotable = []
    for alloca in allocas:
        if is_promotable(alloca):
            promotable.append(alloca)
        else:
            stats.unpromotable_allocas += 1
    if not promotable:
        return stats

    epoch = function.mutation_epoch
    if manager is not None:
        domtree = manager.domtree(function)
        reachable = manager.reachable(function)
        preds = manager.predecessors(function)
    else:
        domtree = DominatorTree(function)
        reachable = reachable_blocks(function)
        preds = predecessor_map(function)

    for alloca in promotable:
        _promote_one(function, alloca, domtree, reachable, preds, stats)
        stats.promoted_allocas += 1
    if manager is not None:
        manager.mark_preserved(function, CFG_ANALYSES, since=epoch)
    return stats


def promote_module(module: Module,
                   manager: Optional[FunctionAnalysisManager] = None
                   ) -> Dict[Function, Mem2RegStats]:
    """Promote allocas in every defined function of a module."""
    return {f: promote_allocas(f, manager) for f in module.defined_functions()}


def _promote_one(function: Function, alloca: AllocaInst, domtree: DominatorTree,
                 reachable: Set[BasicBlock], preds, stats: Mem2RegStats) -> None:
    # A promotable slot's users are exactly its loads and stores.
    users = alloca.users()
    stores = [u for u in users if isinstance(u, StoreInst)]
    access_blocks = {u.parent for u in users}
    value_type = alloca.allocated_type

    def_blocks: Set[BasicBlock] = {s.parent for s in stores if s.parent is not None}
    def_blocks &= reachable

    # Place (initially empty) phi-nodes at the iterated dominance frontier.
    phis: Dict[BasicBlock, PhiInst] = {}
    if def_blocks:
        for block in domtree.iterated_dominance_frontier(def_blocks):
            if block not in reachable:
                continue
            phi = PhiInst(value_type, name=function.unique_name("mem2reg"))
            block.insert(0, phi)
            phis[block] = phi
            stats.inserted_phis += 1

    # Rename: walk the dominator tree carrying the current value of the slot.
    entry = function.entry_block
    incoming_value: Dict[BasicBlock, Value] = {}
    outgoing_value: Dict[BasicBlock, Value] = {}
    undef = UndefValue(value_type)

    for block in domtree.dominator_tree_preorder():
        idom = domtree.immediate_dominator(block)
        current: Value = phis.get(block) or (
            incoming_value.get(block, undef) if block is entry else
            outgoing_value.get(idom, undef) if idom is not None else undef)
        if block not in access_blocks:
            outgoing_value[block] = current
            continue
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

    # Fill in phi incoming values from every predecessor.
    for block, phi in phis.items():
        for pred in preds.get(block, []):
            phi.add_incoming(outgoing_value.get(pred, undef), pred)

    alloca.erase_from_parent()

    # Remove phis that ended up trivial (single unique incoming value).
    _prune_trivial_phis(list(phis.values()), stats)


def _prune_trivial_phis(phis: List[PhiInst], stats: Optional[Mem2RegStats] = None) -> None:
    changed = True
    while changed:
        changed = False
        for phi in list(phis):
            if phi.parent is None:
                continue
            unique = _unique_incoming(phi)
            if unique is not None:
                phi.replace_all_uses_with(unique)
                phi.erase_from_parent()
                phis.remove(phi)
                if stats is not None:
                    stats.inserted_phis -= 1
                changed = True


def _unique_incoming(phi: PhiInst) -> Optional[Value]:
    """The single value a trivial phi forwards, or None if it is not trivial.

    Only self-references are ignored; an ``undef`` incoming value keeps the phi
    alive because replacing ``phi(v, undef)`` with ``v`` could break the
    dominance property (it is SalSSA's phi-node coalescing, not this pruning,
    that is allowed to exploit disjointness).
    """
    unique: Optional[Value] = None
    for value, _ in phi.incoming():
        if value is phi:
            continue
        if unique is None:
            unique = value
        elif value is not unique and not (isinstance(value, UndefValue)
                                          and isinstance(unique, UndefValue)):
            return None
    return unique


# ---------------------------------------------------------------------------
# SSA reconstruction (used by SalSSA's repair and phi-node coalescing)
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionResult:
    """Outcome of rewriting one variable (group of definitions)."""

    inserted_phis: List[PhiInst] = field(default_factory=list)
    rewritten_uses: int = 0


class SSAReconstructor:
    """Restores the SSA dominance property for groups of definitions.

    Each call to :meth:`reconstruct` treats the given definitions as writes to
    a single imaginary variable (the paper's coalesced name), adds an implicit
    ``undef`` definition at the function entry, places phi-nodes at the
    iterated dominance frontier of the definition blocks and rewrites every
    registered use to the value reaching it.
    """

    def __init__(self, function: Function,
                 manager: Optional[FunctionAnalysisManager] = None) -> None:
        self.function = function
        # A private manager still deduplicates the reconstructor's own repeated
        # queries; a shared one additionally lets other consumers (codegen's
        # violation scan, the verifier) reuse the same dominator tree.
        self.manager = manager or FunctionAnalysisManager()
        self._load()

    def _load(self) -> None:
        self.domtree = self.manager.domtree(self.function)
        self.preds = self.manager.predecessors(self.function)
        self.reachable = self.manager.reachable(self.function)

    def refresh(self) -> None:
        """Recompute CFG-derived state after the function has been edited.

        Epoch-aware: analyses still stamped with the current mutation epoch
        are reused, anything stale is recomputed.
        """
        self._load()

    def reconstruct(self, definitions: Sequence[Instruction],
                    value_type: Optional[Type] = None) -> ReconstructionResult:
        """Rewire all uses of ``definitions`` so every use is dominated.

        ``definitions`` may contain one value (plain dominance repair) or a
        pair of *disjoint* definitions (phi-node coalescing, §4.4): in both
        cases all their uses end up reading the single reconstructed variable.
        """
        result = ReconstructionResult()
        definitions = [d for d in definitions if d.parent is not None]
        if not definitions:
            return result
        if value_type is None:
            value_type = definitions[0].type
        entry = self.function.entry_block
        if entry is None:
            return result

        # Uses to rewrite: every use of any definition in the group, except the
        # definitions themselves.
        use_records = []
        definition_set = set(definitions)
        definition_blocks = {d.parent for d in definitions}
        for definition in definitions:
            for user, index in definition.uses:
                if isinstance(user, Instruction) and user not in definition_set:
                    use_records.append((user, index, definition))
        if not use_records:
            return result
        epoch = self.function.mutation_epoch

        def_blocks: Set[BasicBlock] = {entry}
        def_blocks.update(d.parent for d in definitions if d.parent in self.reachable)

        # Pruned SSA: only place phi-nodes where the reconstructed variable is
        # live-in, otherwise dominance-frontier placement floods the merged
        # function with dead phi webs.
        live_in = self._live_in_blocks(definition_set, definition_blocks,
                                       use_records)

        phis: Dict[BasicBlock, PhiInst] = {}
        for block in self.domtree.iterated_dominance_frontier(def_blocks):
            if block not in self.reachable or block not in live_in:
                continue
            phi = PhiInst(value_type, name=self.function.unique_name("ssa.repair"))
            block.insert(0, phi)
            phis[block] = phi
            result.inserted_phis.append(phi)

        # The last definition of each block that holds one: the value the
        # variable has on leaving that block.
        last_definition: Dict[BasicBlock, Instruction] = {}
        for block in definition_blocks:
            for inst in reversed(block.instructions):
                if inst in definition_set:
                    last_definition[block] = inst
                    break

        # Walk the dominator tree over blocks only, recording the value that
        # enters and the value that leaves each reachable block.
        undef = UndefValue(value_type)
        entering: Dict[BasicBlock, Value] = {}
        outgoing: Dict[BasicBlock, Value] = {}
        for block in self.domtree.dominator_tree_preorder():
            idom = self.domtree.immediate_dominator(block)
            if block in phis:
                current: Value = phis[block]
            elif block is entry:
                current = undef
            elif idom is not None:
                current = outgoing.get(idom, undef)
            else:
                current = undef
            entering[block] = current
            outgoing[block] = last_definition.get(block, current)

        # Rewrite non-phi uses with the value reaching the use point, and phi
        # uses with the value reaching the end of the incoming block.  Only a
        # use in a block holding a definition scans for the definitions before
        # it; a use outside every reachable block reads undef.
        for user, index, definition in use_records:
            if isinstance(user, PhiInst):
                incoming_block = user.get_operand(index + 1)
                replacement = outgoing.get(incoming_block, undef)
            else:
                block = user.parent
                replacement = entering.get(block, undef)
                if block in entering and block in last_definition:
                    for inst in block.instructions:
                        if inst is user:
                            break
                        if inst in definition_set:
                            replacement = inst
            if replacement is user:
                # A phi should not feed itself through reconstruction; fall back
                # to the original definition (already dominating in that case).
                replacement = definition
            if replacement is not definition or replacement is not user.get_operand(index):
                user.set_operand(index, replacement)
                result.rewritten_uses += 1

        # Fill the incoming lists of the repair phis.
        for block, phi in phis.items():
            for pred in self.preds.get(block, []):
                phi.add_incoming(outgoing.get(pred, undef), pred)

        # Reconstruction inserts phi-nodes and rewrites operands but never
        # touches block structure or terminators, so the CFG analyses remain
        # valid for the epochs this call is responsible for.
        self.manager.mark_preserved(self.function, CFG_ANALYSES, since=epoch)
        return result

    def _live_in_blocks(self, definition_set: Set[Instruction],
                        definition_blocks: Set[BasicBlock],
                        use_records) -> Set[BasicBlock]:
        """Blocks where the reconstructed variable is live on entry.

        A block is live-in if some registered use can be reached from its start
        without passing one of the definitions first (standard pruned-SSA
        liveness, computed backwards from the use points).
        ``definition_blocks`` are the blocks holding the definitions.
        """
        live_in: Set[BasicBlock] = set()
        worklist: List[BasicBlock] = []

        def defs_before(block: BasicBlock, boundary: Instruction) -> bool:
            if block not in definition_blocks:
                return False
            for inst in block.instructions:
                if inst is boundary:
                    return False
                if inst in definition_set:
                    return True
            return False

        def mark_live_out(block: BasicBlock) -> None:
            # Live at the end of `block`: propagate to live-in unless a
            # definition inside the block kills the variable.
            if block in definition_blocks:
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
