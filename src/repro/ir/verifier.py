"""IR verifier: checks the structural and SSA well-formedness rules.

The verifier enforces the properties the paper's code generator must preserve
(§4.3): every block ends in a terminator, phi-nodes agree with their block's
predecessors, every use of a value is dominated by its definition (the SSA
*dominance property*), and landing pads appear only as the unwind successor of
an ``invoke``.  Local names are unique: arguments, blocks and named
instructions share one namespace, as in LLVM.

Merged functions produced by both FMSA and SalSSA are verified in the test
suite and (optionally) by the pass manager after every committed merge.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .basic_block import BasicBlock
from .function import Function
from .instructions import (
    Instruction,
    InvokeInst,
    LandingPadInst,
    PhiInst,
    TerminatorInst,
)
from .module import Module
from .values import Argument, Constant, GlobalValue, UndefValue, Value


class VerificationError(Exception):
    """Raised by :func:`verify_function` / :func:`verify_module` on invalid IR."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("\n".join(errors))
        self.errors = errors


def verify_function(function: Function, raise_on_error: bool = True,
                    manager=None) -> List[str]:
    """Verify one function; returns the list of problems found.

    ``manager`` is an optional :class:`repro.analysis.manager
    .FunctionAnalysisManager`; when given, the dominance check reuses its
    cached dominator tree / reachability instead of building fresh ones.
    """
    errors: List[str] = []
    if function.is_declaration():
        return errors

    blocks = set(function.blocks)
    if function.entry_block is None:
        errors.append(f"@{function.name}: function has no entry block")

    errors.extend(_verify_unique_names(function))
    for block in function.blocks:
        errors.extend(_verify_block_structure(function, block, blocks))

    errors.extend(_verify_phi_nodes(function))
    errors.extend(_verify_dominance(function, manager))
    errors.extend(_verify_landing_pads(function))

    if errors and raise_on_error:
        raise VerificationError(errors)
    return errors


def verify_module(module: Module, raise_on_error: bool = True,
                  manager=None) -> List[str]:
    """Verify every defined function in a module."""
    errors: List[str] = []
    for function in module.defined_functions():
        errors.extend(verify_function(function, raise_on_error=False,
                                      manager=manager))
    if errors and raise_on_error:
        raise VerificationError(errors)
    return errors


# ---------------------------------------------------------------------------
# Individual rules
# ---------------------------------------------------------------------------

def _verify_unique_names(function: Function) -> List[str]:
    names = [arg.name for arg in function.args]
    for block in function.blocks:
        names.append(block.name)
        names.extend(inst.name for inst in block.instructions)
    seen: Set[str] = set()
    duplicates: List[str] = []
    for name in filter(None, names):
        if name in seen and name not in duplicates:
            duplicates.append(name)
        seen.add(name)
    return [f"@{function.name}: duplicate local name %{name}" for name in duplicates]


def _verify_block_structure(function: Function, block: BasicBlock,
                            blocks: Set[BasicBlock]) -> List[str]:
    errors: List[str] = []
    where = f"@{function.name}:%{block.name}"

    if not block.instructions:
        errors.append(f"{where}: empty basic block")
        return errors
    terminator = block.terminator
    if terminator is None:
        errors.append(f"{where}: block does not end with a terminator")
    for index, inst in enumerate(block.instructions):
        if inst.is_terminator() and inst is not block.instructions[-1]:
            errors.append(f"{where}: terminator '{inst.opcode}' is not the last instruction")
        if isinstance(inst, PhiInst) and index > block.first_non_phi_index():
            errors.append(f"{where}: phi-node %{inst.name} not grouped at block start")
        if inst.parent is not block:
            errors.append(f"{where}: instruction %{inst.name or inst.opcode} has wrong parent link")
    if terminator is not None:
        for successor in terminator.successors():
            if isinstance(successor, BasicBlock) and successor not in blocks:
                errors.append(
                    f"{where}: branch to block %{successor.name} outside the function")
    return errors


def _verify_phi_nodes(function: Function) -> List[str]:
    errors: List[str] = []
    for block in function.blocks:
        preds = block.predecessors()
        for phi in block.phis():
            where = f"@{function.name}:%{block.name}:%{phi.name}"
            incoming_blocks = phi.incoming_blocks()
            for pred in preds:
                if pred not in incoming_blocks:
                    errors.append(f"{where}: missing incoming value for predecessor %{pred.name}")
            for incoming in incoming_blocks:
                if incoming not in preds:
                    errors.append(
                        f"{where}: incoming block %{incoming.name} is not a predecessor")
            if len(set(id(b) for b in incoming_blocks)) != len(incoming_blocks):
                errors.append(f"{where}: duplicate incoming blocks")
    return errors


def _is_trackable_local(value: Value) -> bool:
    return isinstance(value, Instruction)


def _verify_dominance(function: Function, manager=None) -> List[str]:
    """Check the SSA dominance property for every instruction operand."""
    # Imported lazily to avoid a circular import between repro.ir and
    # repro.analysis (the analyses operate on the IR classes).
    from ..analysis.cfg import reachable_blocks
    from ..analysis.dominators import DominatorTree

    errors: List[str] = []
    if function.entry_block is None:
        return errors
    if manager is not None:
        domtree = manager.domtree(function)
        reachable = manager.reachable(function)
    else:
        domtree = DominatorTree(function)
        reachable = reachable_blocks(function)

    for block in function.blocks:
        if block not in reachable:
            continue  # uses in unreachable code are ignored, as in LLVM
        for inst in block.instructions:
            for operand_index, operand in enumerate(inst.operands):
                if operand is None or not _is_trackable_local(operand):
                    continue
                def_block = operand.parent
                if def_block is None or def_block not in reachable:
                    continue
                if isinstance(inst, PhiInst):
                    # A phi use must be dominated at the end of the incoming block.
                    if operand_index % 2 == 0:
                        incoming_block = inst.get_operand(operand_index + 1)
                        if isinstance(incoming_block, BasicBlock) and \
                                not domtree.dominates_block(def_block, incoming_block):
                            errors.append(
                                f"@{function.name}: phi %{inst.name} incoming value "
                                f"%{operand.name} does not dominate edge from "
                                f"%{incoming_block.name}")
                    continue
                if not _dominates_use(domtree, operand, inst):
                    errors.append(
                        f"@{function.name}: use of %{operand.name} in "
                        f"%{inst.name or inst.opcode} ({block.name}) is not dominated "
                        f"by its definition ({def_block.name})")
    return errors


def _dominates_use(domtree: DominatorTree, definition: Instruction, use: Instruction) -> bool:
    def_block = definition.parent
    use_block = use.parent
    if def_block is use_block:
        return def_block.instructions.index(definition) < use_block.instructions.index(use)
    return domtree.dominates_block(def_block, use_block)


def _verify_landing_pads(function: Function) -> List[str]:
    errors: List[str] = []
    for block in function.blocks:
        has_landingpad = any(isinstance(i, LandingPadInst) for i in block.instructions)
        if not has_landingpad:
            continue
        first = block.instructions[block.first_non_phi_index()] \
            if block.first_non_phi_index() < len(block.instructions) else None
        if not isinstance(first, LandingPadInst):
            errors.append(
                f"@{function.name}:%{block.name}: landingpad is not the first "
                f"non-phi instruction")
        for pred in block.predecessors():
            terminator = pred.terminator
            if not isinstance(terminator, InvokeInst) or terminator.unwind_dest is not block:
                errors.append(
                    f"@{function.name}:%{block.name}: landing block reached by "
                    f"non-invoke edge from %{pred.name}")
    return errors
