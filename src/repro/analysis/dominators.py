"""Dominator tree and dominance frontier computation.

The implementation follows Cooper, Harvey & Kennedy, *A Simple, Fast Dominance
Algorithm* — the same approach LLVM derives from.  Dominance information is
required by

* the IR verifier (SSA dominance property, paper §4.3),
* mem2reg / SSA construction (phi placement at iterated dominance frontiers),
* SalSSA's SSA repair and phi-node coalescing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction
from .cfg import predecessor_map, reverse_postorder
from .counters import count_construction


class DominatorTree:
    """Immediate-dominator tree for the reachable blocks of a function."""

    def __init__(self, function: Function) -> None:
        count_construction("DominatorTree")
        self.function = function
        self.rpo: List[BasicBlock] = reverse_postorder(function)
        self._order: Dict[BasicBlock, int] = {b: i for i, b in enumerate(self.rpo)}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._children: Dict[BasicBlock, List[BasicBlock]] = {}
        self._frontier: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None
        self._preorder: Optional[List[BasicBlock]] = None
        self._compute()

    # ------------------------------------------------------------- queries
    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.idom.get(block)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return self._children.get(block, [])

    def is_reachable(self, block: BasicBlock) -> bool:
        return block in self._order

    def dominates_block(self, dominator: BasicBlock, block: BasicBlock) -> bool:
        """True if ``dominator`` dominates ``block`` (reflexively)."""
        if dominator is block:
            return True
        if dominator not in self._order or block not in self._order:
            return False
        current: Optional[BasicBlock] = self.idom.get(block)
        while current is not None:
            if current is dominator:
                return True
            if current is self.idom.get(current):
                break
            current = self.idom.get(current)
        return False

    def dominates(self, definition: Instruction, use: Instruction) -> bool:
        """True if instruction ``definition`` dominates instruction ``use``."""
        def_block, use_block = definition.parent, use.parent
        if def_block is None or use_block is None:
            return False
        if def_block is use_block:
            return def_block.instructions.index(definition) < use_block.instructions.index(use)
        return self.dominates_block(def_block, use_block)

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """The dominance frontier of every reachable block.

        Memoized on the tree instance: a tree describes one CFG snapshot, so
        the frontier cannot change for as long as the tree itself is valid
        (repeated phi-placement queries used to recompute it per variable).
        """
        if self._frontier is not None:
            return self._frontier
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in self.rpo}
        preds = predecessor_map(self.function)
        for block in self.rpo:
            block_preds = [p for p in preds.get(block, []) if p in self._order]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom.get(block):
                    frontier[runner].add(block)
                    if runner is self.idom.get(runner):
                        break
                    runner = self.idom.get(runner)
        self._frontier = frontier
        return frontier

    def iterated_dominance_frontier(self,
                                    blocks: Set[BasicBlock]) -> List[BasicBlock]:
        """The iterated dominance frontier of a set of definition blocks.

        This is the classic phi-placement set of Cytron et al.: phi-nodes for a
        variable defined in ``blocks`` are needed exactly at this set.
        Returned in reverse postorder: phi *placement* order names the
        inserted phi-nodes, so it must be a function of the CFG alone — set
        iteration order (object identity) would make two structurally
        identical functions get differently numbered phi webs.
        """
        frontier = self.dominance_frontier()
        result: Set[BasicBlock] = set()
        worklist = [b for b in blocks if b in self._order]
        seen = set(worklist)
        while worklist:
            block = worklist.pop()
            for candidate in frontier.get(block, ()):
                if candidate not in result:
                    result.add(candidate)
                    if candidate not in seen:
                        seen.add(candidate)
                        worklist.append(candidate)
        return [block for block in self.rpo if block in result]

    # ------------------------------------------------------------ internals
    def _compute(self) -> None:
        if not self.rpo:
            return
        entry = self.rpo[0]
        preds = predecessor_map(self.function)
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}

        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                candidates = [p for p in preds.get(block, []) if p in idom and p in self._order]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = self._intersect(idom, other, new_idom)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        idom[entry] = None
        self.idom = idom
        self._children = {block: [] for block in self.rpo}
        for block, dominator in idom.items():
            if dominator is not None:
                self._children.setdefault(dominator, []).append(block)

    def _intersect(self, idom, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        finger_a, finger_b = a, b
        while finger_a is not finger_b:
            while self._order[finger_a] > self._order[finger_b]:
                finger_a = idom[finger_a] if idom[finger_a] is not None else finger_a
                if finger_a is None:
                    break
            while self._order[finger_b] > self._order[finger_a]:
                finger_b = idom[finger_b] if idom[finger_b] is not None else finger_b
                if finger_b is None:
                    break
        return finger_a

    def dominator_tree_preorder(self) -> List[BasicBlock]:
        """Blocks in a pre-order walk of the dominator tree (entry first).

        Memoized on the tree instance, like :meth:`dominance_frontier`;
        callers must not mutate the returned list.
        """
        if self._preorder is not None:
            return self._preorder
        order: List[BasicBlock] = []
        stack = self.rpo[:1]
        while stack:
            block = stack.pop()
            order.append(block)
            stack.extend(reversed(self.children(block)))
        self._preorder = order
        return order
