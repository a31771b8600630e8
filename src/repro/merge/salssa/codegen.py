"""The SalSSA code generator (paper §4).

Given two SSA-form functions and an alignment of their linearised sequences,
the merger produces one merged function whose behaviour is selected by an
``i1`` function-identifier argument (``%fid``): ``fid = 0`` executes the first
input function, ``fid = 1`` the second.

The generation follows the paper's top-down structure:

1. **CFG generation** (§4.1) — merged basic blocks are created from the input
   CFGs; matched labels/instructions share a block, non-matched runs get their
   own fid-exclusive blocks, and blocks originating from the same input block
   are chained with (conditional) branches so the original instruction order
   is preserved.  Phi-nodes are copied with their block's label (§4.1.1) and a
   *value map* plus *block map* are maintained (§4.1.2).
2. **Operand assignment** (§4.2) — label operands first (creating label
   selection blocks, applying the xor-branch folding of Fig. 11 and the
   landing-block rewrite of Fig. 12), then data operands (operand selection
   with ``select %fid`` and operand reordering for commutative instructions),
   then phi-node incoming values through the block map (§4.2.3).
3. **SSA repair** (§4.3) and **phi-node coalescing** (§4.4) — the standard SSA
   construction algorithm restores the dominance property; disjoint
   definitions are coalesced under a single name first, eliminating phi-nodes
   and operand selects.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...analysis.cfg import reachable_blocks
from ...analysis.dominators import DominatorTree
from ...analysis.manager import CFG_ANALYSES
from ...ir.basic_block import BasicBlock
from ...ir.function import Function
from ...ir.instructions import (
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    Instruction,
    InvokeInst,
    LandingPadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    TerminatorInst,
)
from ...ir.module import Module
from ...ir.types import FunctionType, I1, Type
from ...ir.values import Argument, Constant, UndefValue, Value
from ...ir.verifier import verify_function
from ...transforms.mem2reg import SSAReconstructor
from ...transforms.simplify import simplify_function
from ..alignment import AlignedPair, AlignmentResult, align
from ..linearize import InstructionEntry, LabelEntry, linearize
from .phi_coalescing import plan_coalescing


class MergeError(Exception):
    """Raised when a pair of functions cannot be merged."""


@dataclass
class SalSSAOptions:
    """Configuration knobs of the SalSSA code generator.

    The defaults correspond to the full technique evaluated in the paper;
    the flags exist for the ablation experiments (e.g. ``SalSSA-NoPC`` in
    Figure 20 disables ``phi_coalescing``).
    """

    phi_coalescing: bool = True
    operand_reordering: bool = True
    xor_branch_folding: bool = True
    run_simplification: bool = True
    verify_result: bool = False


@dataclass
class MergeStats:
    """Statistics about one merge operation (used by the harness/figures)."""

    matched_instructions: int = 0
    matched_labels: int = 0
    alignment_length_first: int = 0
    alignment_length_second: int = 0
    alignment_dp_cells: int = 0
    created_blocks: int = 0
    chaining_branches: int = 0
    operand_selects: int = 0
    label_selection_blocks: int = 0
    xor_branch_folds: int = 0
    reordered_operands: int = 0
    repair_phis: int = 0
    coalesced_pairs: int = 0
    landing_blocks: int = 0
    alignment_seconds: float = 0.0
    codegen_seconds: float = 0.0


@dataclass
class MergedFunction:
    """The result of merging two functions."""

    function: Function
    first: Function
    second: Function
    #: per input function (0/1): original argument index -> merged argument index
    param_map: Dict[int, Dict[int, int]]
    stats: MergeStats = field(default_factory=MergeStats)

    def call_arguments(self, which: int, original_args: Sequence[Value]) -> List[Value]:
        """Build the merged-function argument list for a call to input ``which``."""
        merged_args: List[Value] = [Constant(I1, which)]
        mapping = self.param_map[which]
        for merged_index in range(1, len(self.function.args)):
            source = None
            for original_index, target in mapping.items():
                if target == merged_index:
                    source = original_args[original_index]
                    break
            if source is None:
                source = UndefValue(self.function.args[merged_index].type)
            merged_args.append(source)
        return merged_args


class SalSSAMerger:
    """Merges pairs of functions in full SSA form (the paper's contribution)."""

    def __init__(self, module: Module, options: Optional[SalSSAOptions] = None,
                 analysis_manager=None) -> None:
        self.module = module
        self.options = options or SalSSAOptions()
        #: Optional shared analysis manager (see repro.analysis.manager): SSA
        #: repair, the dominance-violation scan, simplification and
        #: verification of the merged function then share one dominator tree
        #: instead of each building their own.
        self.analysis_manager = analysis_manager

    # ------------------------------------------------------------ interface
    def merge(self, first: Function, second: Function, name: Optional[str] = None,
              alignment: Optional[AlignmentResult] = None) -> MergedFunction:
        """Merge ``first`` and ``second`` into a new function added to the module."""
        if first.is_declaration() or second.is_declaration():
            raise MergeError("cannot merge function declarations")
        if first.return_type != second.return_type:
            raise MergeError(
                f"@{first.name} and @{second.name} have different return types")

        state = _MergeState(self.module, first, second, self.options,
                            self.analysis_manager)
        started = time.perf_counter()
        if alignment is None:
            alignment = align(linearize(first), linearize(second))
        state.stats.alignment_seconds = time.perf_counter() - started
        state.stats.alignment_length_first = alignment.length_first
        state.stats.alignment_length_second = alignment.length_second
        state.stats.alignment_dp_cells = alignment.dp_cells

        started = time.perf_counter()
        state.create_merged_function(name)
        merged = state.merged
        with rolled_back_on_error(self.module, merged, self.analysis_manager):
            state.generate_cfg(alignment.pairs)
            state.add_chaining_branches()
            state.assign_label_operands()
            state.assign_data_operands()
            state.assign_phi_incomings()
            state.repair_ssa()
            state.stats.codegen_seconds = time.perf_counter() - started

            if self.options.run_simplification:
                simplify_function(merged, manager=self.analysis_manager)
            if self.options.verify_result:
                verify_function(merged, manager=self.analysis_manager)
        return MergedFunction(merged, first, second, state.param_map, state.stats)


@contextmanager
def rolled_back_on_error(module: Module, merged: Function,
                         analysis_manager) -> Iterator[None]:
    """Remove the partly built ``merged`` from ``module`` if the body raises.

    Any exception becomes a :class:`MergeError` chained from the original,
    so the pass records a failed attempt and keeps a module that verifies.
    The removed function drops its references, so it is freed.
    """
    try:
        yield
    except Exception as error:
        if merged.parent is module:
            module.remove_function(merged)
        merged.drop_all_references()
        if analysis_manager is not None:
            analysis_manager.forget(merged)
        if isinstance(error, MergeError):
            raise
        raise MergeError(f"merging into @{merged.name} failed: {error!r}") from error


# ---------------------------------------------------------------------------
# Internal merge state
# ---------------------------------------------------------------------------

class _MergeState:
    """All bookkeeping for one merge: value map, block map, chains, stats."""

    def __init__(self, module: Module, first: Function, second: Function,
                 options: SalSSAOptions, analysis_manager=None) -> None:
        self.module = module
        self.inputs = (first, second)
        self.options = options
        self.analysis_manager = analysis_manager
        self.stats = MergeStats()

        self.merged: Optional[Function] = None
        self.fid: Optional[Argument] = None
        self.param_map: Dict[int, Dict[int, int]] = {0: {}, 1: {}}

        #: input value -> merged value (instructions, blocks, arguments)
        self.value_map: Dict[Value, Value] = {}
        #: merged block -> {function index: input block} (paper's block map)
        self.block_map: Dict[BasicBlock, Dict[int, BasicBlock]] = {}
        #: merged instruction -> (input instruction of f1 or None, of f2 or None)
        self.origin: Dict[Instruction, Tuple[Optional[Instruction], Optional[Instruction]]] = {}
        #: merged copied phi -> (function index, original phi)
        self.phi_origin: Dict[PhiInst, Tuple[int, PhiInst]] = {}
        #: merged terminators whose condition must be xor-ed with fid
        self.xor_branches: List[Instruction] = []
        #: operand slots already resolved during label assignment
        self.assigned_label_slots: Dict[Instruction, set] = {}
        #: original copied landing block -> replacement landingpads created for it
        self.landingpad_groups: Dict[BasicBlock, List[Instruction]] = {}
        self.entry_block: Optional[BasicBlock] = None

    # ----------------------------------------------------------- signature
    def create_merged_function(self, name: Optional[str]) -> None:
        first, second = self.inputs
        merged_name = name or self.module.unique_function_name(
            f"{first.name}.{second.name}.merged")

        param_types: List[Type] = [I1]
        arg_names: List[str] = ["fid"]
        used_names = {"fid"}

        def claim_name(base: str) -> str:
            # Argument names must be unique within the merged function:
            # inputs that are themselves merged functions carry a "fid"
            # argument of their own, and printed IR with duplicate names
            # cannot be parsed back faithfully.
            candidate, suffix = base, 0
            while candidate in used_names:
                suffix += 1
                candidate = f"{base}.{suffix}"
            used_names.add(candidate)
            return candidate

        # Function 1 arguments each get their own slot.
        for index, arg in enumerate(first.args):
            self.param_map[0][index] = len(param_types)
            param_types.append(arg.type)
            arg_names.append(claim_name(arg.name or f"a{index}"))
        # Function 2 arguments reuse slots of equal type where possible.
        used_slots: set = set()
        for index, arg in enumerate(second.args):
            slot = None
            for candidate in range(1, len(param_types)):
                if candidate in used_slots:
                    continue
                if param_types[candidate] == arg.type:
                    slot = candidate
                    break
            if slot is None:
                slot = len(param_types)
                param_types.append(arg.type)
                arg_names.append(claim_name(arg.name or f"b{index}"))
            used_slots.add(slot)
            self.param_map[1][index] = slot

        function_type = FunctionType(first.return_type, tuple(param_types))
        self.merged = Function(function_type, merged_name, arg_names)
        self.module.add_function(self.merged)
        self.fid = self.merged.args[0]

        for index, arg in enumerate(first.args):
            self.value_map[arg] = self.merged.args[self.param_map[0][index]]
        for index, arg in enumerate(second.args):
            self.value_map[arg] = self.merged.args[self.param_map[1][index]]

        self.entry_block = self.merged.add_block("entry")
        self.block_map[self.entry_block] = {}

    # ------------------------------------------------------ CFG generation
    def generate_cfg(self, pairs: Sequence[AlignedPair]) -> None:
        current: Optional[BasicBlock] = None
        for pair in pairs:
            if pair.is_match and isinstance(pair.first, LabelEntry):
                current = self._emit_matched_label(pair.first.block, pair.second.block)
            elif pair.is_match:
                current = self._emit_matched_instruction(
                    current, pair.first.instruction, pair.second.instruction)
            elif pair.first is not None:
                current = self._emit_unmatched(current, 0, pair.first)
            else:
                current = self._emit_unmatched(current, 1, pair.second)

    def _new_block(self, origin: Dict[int, BasicBlock]) -> BasicBlock:
        block = self.merged.add_block(self.merged.unique_name("m"))
        self.block_map[block] = dict(origin)
        self.stats.created_blocks += 1
        return block

    def _copy_phis(self, input_block: BasicBlock, which: int, target: BasicBlock) -> None:
        for phi in input_block.phis():
            copy = PhiInst(phi.type, name=self.merged.unique_name(phi.name or "phi"))
            target.insert(target.first_non_phi_index(), copy)
            self.value_map[phi] = copy
            self.phi_origin[copy] = (which, phi)
            self.origin[copy] = (phi, None) if which == 0 else (None, phi)

    def _emit_matched_label(self, block_a: BasicBlock, block_b: BasicBlock) -> BasicBlock:
        merged_block = self._new_block({0: block_a, 1: block_b})
        self.value_map[block_a] = merged_block
        self.value_map[block_b] = merged_block
        self._copy_phis(block_a, 0, merged_block)
        self._copy_phis(block_b, 1, merged_block)
        self.stats.matched_labels += 1
        return merged_block

    def _emit_matched_instruction(self, current: Optional[BasicBlock],
                                  inst_a: Instruction, inst_b: Instruction) -> BasicBlock:
        wanted = {0: inst_a.parent, 1: inst_b.parent}
        block = self._reuse_or_create(current, wanted)
        merged_inst = inst_a.clone()
        merged_inst.name = self.merged.unique_name(inst_a.name or "m") \
            if merged_inst.produces_value() else ""
        block.append(merged_inst)
        self.value_map[inst_a] = merged_inst
        self.value_map[inst_b] = merged_inst
        self.origin[merged_inst] = (inst_a, inst_b)
        self.stats.matched_instructions += 1
        return block

    def _emit_unmatched(self, current: Optional[BasicBlock], which: int, entry) -> BasicBlock:
        if isinstance(entry, LabelEntry):
            merged_block = self._new_block({which: entry.block})
            self.value_map[entry.block] = merged_block
            self._copy_phis(entry.block, which, merged_block)
            return merged_block
        inst = entry.instruction
        wanted = {which: inst.parent}
        block = self._reuse_or_create(current, wanted)
        copy = inst.clone()
        copy.name = self.merged.unique_name(inst.name or "c") if copy.produces_value() else ""
        block.append(copy)
        self.value_map[inst] = copy
        self.origin[copy] = (inst, None) if which == 0 else (None, inst)
        return block

    def _reuse_or_create(self, current: Optional[BasicBlock],
                         wanted: Dict[int, BasicBlock]) -> BasicBlock:
        """Append to the current merged block when it carries exactly the same
        input block(s) and is still open; otherwise start a new block."""
        if current is not None and not current.has_terminator() \
                and self.block_map.get(current) == wanted:
            return current
        return self._new_block(wanted)

    # ------------------------------------------------------------ chaining
    def add_chaining_branches(self) -> None:
        """Chain merged blocks that carry consecutive code of one input block
        (paper §4.1) and give the merged function its entry dispatch."""
        needed_next: Dict[BasicBlock, Dict[int, BasicBlock]] = {}
        for which, function in enumerate(self.inputs):
            for input_block in function.blocks:
                chain = self._chain_of(which, input_block)
                for source, destination in zip(chain, chain[1:]):
                    needed_next.setdefault(source, {})[which] = destination

        first, second = self.inputs
        entry_targets = {0: self.value_map[first.entry_block],
                         1: self.value_map[second.entry_block]}
        needed_next[self.entry_block] = entry_targets

        for block, targets in needed_next.items():
            if block.has_terminator():
                continue
            target_first = targets.get(0)
            target_second = targets.get(1)
            if target_first is not None and target_second is not None \
                    and target_first is not target_second:
                block.append(BranchInst(self.fid, target_second, target_first))
            else:
                block.append(BranchInst(target_first or target_second))
            self.stats.chaining_branches += 1

    def _chain_of(self, which: int, input_block: BasicBlock) -> List[BasicBlock]:
        chain: List[BasicBlock] = [self.value_map[input_block]]
        for inst in input_block.instructions:
            if isinstance(inst, PhiInst):
                continue
            merged = self.value_map.get(inst)
            if merged is None or merged.parent is None:
                continue
            if merged.parent is not chain[-1]:
                chain.append(merged.parent)
        return chain

    # -------------------------------------------------- operand assignment
    def map_value(self, value: Optional[Value]) -> Optional[Value]:
        """Map an input operand to the merged function's value space."""
        if value is None:
            return None
        return self.value_map.get(value, value)

    def assign_label_operands(self) -> None:
        """Resolve label operands of merged terminators (paper §4.2.1, §4.2.2)."""
        for merged_inst, (inst_a, inst_b) in list(self.origin.items()):
            if not isinstance(merged_inst, TerminatorInst):
                continue
            if inst_a is not None and inst_b is not None:
                self._assign_matched_terminator_labels(merged_inst, inst_a, inst_b)
            # Single-origin terminators keep their operand structure; labels are
            # remapped together with data operands in assign_data_operands.

    def _assign_matched_terminator_labels(self, merged_inst: Instruction,
                                          inst_a: Instruction, inst_b: Instruction) -> None:
        assigned = self.assigned_label_slots.setdefault(merged_inst, set())

        if isinstance(merged_inst, BranchInst):
            if merged_inst.is_conditional:
                true_a, false_a = self.map_value(inst_a.if_true), self.map_value(inst_a.if_false)
                true_b, false_b = self.map_value(inst_b.if_true), self.map_value(inst_b.if_false)
                if self.options.xor_branch_folding and true_a is false_b and false_a is true_b \
                        and true_a is not false_a:
                    # Same targets with swapped polarity: xor the condition with fid.
                    self.xor_branches.append(merged_inst)
                    self.stats.xor_branch_folds += 1
                    merged_inst.set_operand(1, true_a)
                    merged_inst.set_operand(2, false_a)
                else:
                    merged_inst.set_operand(1, self._label_or_selection(
                        true_a, true_b, inst_a, inst_b))
                    merged_inst.set_operand(2, self._label_or_selection(
                        false_a, false_b, inst_a, inst_b))
                assigned.update({1, 2})
            else:
                merged_inst.set_operand(0, self._label_or_selection(
                    self.map_value(inst_a.if_true), self.map_value(inst_b.if_true),
                    inst_a, inst_b))
                assigned.add(0)
        elif isinstance(merged_inst, SwitchInst):
            merged_inst.set_operand(1, self._label_or_selection(
                self.map_value(inst_a.default), self.map_value(inst_b.default),
                inst_a, inst_b))
            assigned.add(1)
            cases_a = inst_a.cases()
            cases_b = inst_b.cases()
            for index, ((_, block_a), (_, block_b)) in enumerate(zip(cases_a, cases_b)):
                slot = 3 + 2 * index
                merged_inst.set_operand(slot, self._label_or_selection(
                    self.map_value(block_a), self.map_value(block_b), inst_a, inst_b))
                assigned.add(slot)
        elif isinstance(merged_inst, InvokeInst):
            normal_slot = 1 + len(inst_a.args)
            unwind_slot = 2 + len(inst_a.args)
            merged_inst.set_operand(normal_slot, self._label_or_selection(
                self.map_value(inst_a.normal_dest), self.map_value(inst_b.normal_dest),
                inst_a, inst_b))
            merged_inst.set_operand(unwind_slot, self._merged_landing_block(
                merged_inst, inst_a, inst_b))
            assigned.update({normal_slot, unwind_slot})

    def _label_or_selection(self, label_a: BasicBlock, label_b: BasicBlock,
                            inst_a: Instruction, inst_b: Instruction) -> BasicBlock:
        """Use the common label, or build a label-selection block (Fig. 10)."""
        if label_a is label_b:
            return label_a
        selection = self._new_block({0: inst_a.parent, 1: inst_b.parent})
        selection.append(BranchInst(self.fid, label_b, label_a))
        self.stats.label_selection_blocks += 1
        return selection

    def _merged_landing_block(self, merged_invoke: Instruction,
                              inst_a: InvokeInst, inst_b: InvokeInst) -> BasicBlock:
        """Create the intermediate landing block for a merged invoke (Fig. 12)."""
        unwind_a = self.map_value(inst_a.unwind_dest)
        unwind_b = self.map_value(inst_b.unwind_dest)
        pad_type = self._landingpad_type(inst_a) or self._landingpad_type(inst_b)

        landing = self._new_block({0: inst_a.parent, 1: inst_b.parent})
        new_pad = LandingPadInst(pad_type, cleanup=True,
                                 name=self.merged.unique_name("lpad"))
        landing.append(new_pad)
        if unwind_a is unwind_b:
            landing.append(BranchInst(unwind_a))
        else:
            landing.append(BranchInst(self.fid, unwind_b, unwind_a))
        self.stats.landing_blocks += 1

        # The copied landing pads in the original unwind blocks are superseded
        # by the new one; remember them so SSA repair can merge multiple
        # replacement pads feeding the same block.
        for original_invoke, unwind_block in ((inst_a, unwind_a), (inst_b, unwind_b)):
            if not isinstance(unwind_block, BasicBlock):
                continue
            self.landingpad_groups.setdefault(unwind_block, [])
            if new_pad not in self.landingpad_groups[unwind_block]:
                self.landingpad_groups[unwind_block].append(new_pad)
        return landing

    @staticmethod
    def _landingpad_type(invoke: InvokeInst) -> Optional[Type]:
        unwind = invoke.unwind_dest
        if isinstance(unwind, BasicBlock):
            index = unwind.first_non_phi_index()
            if index < len(unwind.instructions) and \
                    isinstance(unwind.instructions[index], LandingPadInst):
                return unwind.instructions[index].type
        return None

    def assign_data_operands(self) -> None:
        """Resolve value operands, inserting ``select %fid`` for mismatches (Fig. 8)."""
        for merged_inst, (inst_a, inst_b) in list(self.origin.items()):
            if isinstance(merged_inst, PhiInst):
                continue  # handled by assign_phi_incomings
            if inst_a is not None and inst_b is not None:
                self._assign_matched_operands(merged_inst, inst_a, inst_b)
            else:
                source = inst_a if inst_a is not None else inst_b
                for index, operand in enumerate(source.operands):
                    merged_inst.set_operand(index, self.map_value(operand))

        # Apply the xor-branch folding recorded during label assignment.
        for merged_inst in self.xor_branches:
            condition = merged_inst.get_operand(0)
            xor = BinaryInst("xor", condition, self.fid,
                             self.merged.unique_name("xcond"))
            merged_inst.parent.insert_before(merged_inst, xor)
            merged_inst.set_operand(0, xor)

    def _assign_matched_operands(self, merged_inst: Instruction,
                                 inst_a: Instruction, inst_b: Instruction) -> None:
        assigned_labels = self.assigned_label_slots.get(merged_inst, set())
        operands_a = list(inst_a.operands)
        operands_b = list(inst_b.operands)

        if self.options.operand_reordering and merged_inst.is_commutative() \
                and len(operands_a) >= 2 and len(operands_b) >= 2:
            operands_b = self._maybe_reorder(operands_a, operands_b)

        for index in range(len(operands_a)):
            if index in assigned_labels:
                continue
            mapped_a = self.map_value(operands_a[index])
            mapped_b = self.map_value(operands_b[index]) if index < len(operands_b) else None
            merged_inst.set_operand(index, self._merge_operand(merged_inst, mapped_a, mapped_b))

    def _maybe_reorder(self, operands_a: List[Value], operands_b: List[Value]) -> List[Value]:
        """Swap the operands of a commutative instruction of the second function
        when doing so increases the number of matching operands (Fig. 9)."""
        def matches(order: List[Value]) -> int:
            count = 0
            for a, b in zip(operands_a[:2], order[:2]):
                if self._same_operand(self.map_value(a), self.map_value(b)):
                    count += 1
            return count

        swapped = [operands_b[1], operands_b[0]] + list(operands_b[2:])
        if matches(swapped) > matches(operands_b):
            self.stats.reordered_operands += 1
            return swapped
        return operands_b

    @staticmethod
    def _same_operand(value_a: Optional[Value], value_b: Optional[Value]) -> bool:
        if value_a is value_b:
            return True
        if isinstance(value_a, Constant) and isinstance(value_b, Constant):
            return value_a == value_b
        if isinstance(value_a, UndefValue) and isinstance(value_b, UndefValue):
            return value_a.type == value_b.type
        return False

    def _merge_operand(self, merged_inst: Instruction, mapped_a: Optional[Value],
                       mapped_b: Optional[Value]) -> Optional[Value]:
        if self._same_operand(mapped_a, mapped_b):
            return mapped_a
        if mapped_a is None:
            return mapped_b
        if mapped_b is None:
            return mapped_a
        if isinstance(mapped_a, UndefValue):
            return mapped_b
        if isinstance(mapped_b, UndefValue):
            return mapped_a
        select = SelectInst(self.fid, mapped_b, mapped_a,
                            self.merged.unique_name("opsel"))
        merged_inst.parent.insert_before(merged_inst, select)
        self.stats.operand_selects += 1
        return select

    # -------------------------------------------------------- phi incoming
    def assign_phi_incomings(self) -> None:
        """Fill the incoming lists of copied phi-nodes through the block map (§4.2.3)."""
        for phi_copy, (which, original_phi) in self.phi_origin.items():
            block = phi_copy.parent
            if block is None:
                continue
            for predecessor in block.predecessors():
                input_block = self.block_map.get(predecessor, {}).get(which)
                incoming: Value = UndefValue(phi_copy.type)
                if input_block is not None:
                    original_value = original_phi.incoming_value_for_block(input_block)
                    if original_value is not None:
                        incoming = self.map_value(original_value)
                phi_copy.add_incoming(incoming, predecessor)

    # ----------------------------------------------------------- SSA repair
    def repair_ssa(self) -> None:
        """Restore the dominance property (§4.3) with phi-node coalescing (§4.4)."""
        reconstructor = SSAReconstructor(self.merged, self.analysis_manager)

        # Merge replacement landing pads feeding the same original landing block.
        for landing_block, pads in self.landingpad_groups.items():
            original_pad = self._original_landingpad(landing_block)
            if original_pad is not None:
                # Superseding a pad rewrites operands and drops one non-
                # terminator instruction — no CFG change, so the analyses the
                # reconstructor just loaded stay valid.
                epoch = self.merged.mutation_epoch
                original_pad.replace_all_uses_with(pads[0])
                original_pad.erase_from_parent()
                if self.analysis_manager is not None:
                    self.analysis_manager.mark_preserved(
                        self.merged, CFG_ANALYSES, since=epoch)
            if len(pads) >= 1:
                result = reconstructor.reconstruct(pads)
                self.stats.repair_phis += len(result.inserted_phis)

        violating = self._find_dominance_violations()
        plan = plan_coalescing(violating, self.block_map,
                               enable=self.options.phi_coalescing)
        self.stats.coalesced_pairs += plan.coalesced_count
        for group in plan.groups():
            result = reconstructor.reconstruct(group)
            self.stats.repair_phis += len(result.inserted_phis)

    @staticmethod
    def _original_landingpad(block: BasicBlock) -> Optional[LandingPadInst]:
        index = block.first_non_phi_index()
        if index < len(block.instructions) and \
                isinstance(block.instructions[index], LandingPadInst):
            return block.instructions[index]
        return None

    def _find_dominance_violations(self) -> List[Instruction]:
        """Instruction-defined values with at least one non-dominated use."""
        if self.analysis_manager is not None:
            # SSA repair and landing-pad superseding both preserve the CFG
            # analyses, so this reuses the tree the reconstructor just built
            # instead of constructing a second one per merge.
            domtree = self.analysis_manager.domtree(self.merged)
            reachable = self.analysis_manager.reachable(self.merged)
        else:
            domtree = DominatorTree(self.merged)
            reachable = reachable_blocks(self.merged)
        violating: List[Instruction] = []
        seen: set = set()
        for block in self.merged.blocks:
            if block not in reachable:
                continue
            for inst in block.instructions:
                for operand_index, operand in enumerate(inst.operands):
                    if not isinstance(operand, Instruction) or operand.parent is None:
                        continue
                    if operand in seen:
                        continue
                    if operand.parent not in reachable:
                        continue
                    if self._use_is_dominated(domtree, operand, inst, operand_index):
                        continue
                    violating.append(operand)
                    seen.add(operand)
        return violating

    @staticmethod
    def _use_is_dominated(domtree: DominatorTree, definition: Instruction,
                          user: Instruction, operand_index: int) -> bool:
        if isinstance(user, PhiInst):
            if operand_index % 2 != 0:
                return True  # block operands are not value uses
            incoming_block = user.get_operand(operand_index + 1)
            if not isinstance(incoming_block, BasicBlock):
                return True
            return domtree.dominates_block(definition.parent, incoming_block)
        return domtree.dominates(definition, user)
