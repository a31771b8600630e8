"""Matching criteria for sequence alignment.

Two entries can be paired by the alignment only if merging them into a single
instruction is well defined: same opcode, same result type and structurally
compatible operands (same count and types).  Mismatching operand *values* are
allowed — that is exactly what operand selection on the function identifier is
for — but mismatching operand *types* are not.

Labels match labels (any pair), except labels of landing-pad blocks which are
kept exclusive so the Itanium landing-pad model is preserved by construction.
Phi-nodes and landing pads never match (paper §4.1.1 and §4.2.2).

The criteria are written once, as a match key per entry (:func:`entry_key`):
two entries match iff their keys are equal and not None.  Matching is thus an
equivalence on keyed entries, which is what lets the alignment bucket the
second sequence by key instead of testing every pair.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..ir.basic_block import BasicBlock
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    GEPInst,
    Instruction,
    InvokeInst,
    LandingPadInst,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from .linearize import Entry, LabelEntry


def is_landing_block(block: BasicBlock) -> bool:
    """True if the block starts (modulo phis) with a landing-pad instruction."""
    index = block.first_non_phi_index()
    if index >= len(block.instructions):
        return False
    return isinstance(block.instructions[index], LandingPadInst)


def labels_match(block_a: BasicBlock, block_b: BasicBlock) -> bool:
    """Whether two block labels may be aligned with each other."""
    return not is_landing_block(block_a) and not is_landing_block(block_b)


def instruction_key(inst: Instruction) -> Optional[Hashable]:
    """The match class of an instruction (paper's mergeable pairs).

    Two instructions may be merged into one iff their keys are equal and not
    None: the key holds the instruction class, the result type and every
    operand property the merge needs to agree on.
    """
    if isinstance(inst, (PhiInst, LandingPadInst)):
        return None
    kind = type(inst)
    if isinstance(inst, BinaryInst):
        return kind, inst.type, inst.opcode, inst.lhs.type
    if isinstance(inst, CmpInst):
        return kind, inst.type, inst.predicate, inst.lhs.type
    if isinstance(inst, CastInst):
        return kind, inst.type, inst.opcode, inst.value.type
    if isinstance(inst, SelectInst):
        return kind, inst.type, inst.if_true.type
    if isinstance(inst, AllocaInst):
        return kind, inst.type, inst.allocated_type
    if isinstance(inst, LoadInst):
        return kind, inst.type, inst.pointer.type
    if isinstance(inst, StoreInst):
        return kind, inst.type, inst.value.type, inst.pointer.type
    if isinstance(inst, GEPInst):
        return kind, inst.type, inst.pointer.type, tuple(x.type for x in inst.indices)
    if isinstance(inst, InvokeInst):
        # Matched invokes must have landing pads of the same type so a single
        # intermediate landing pad can serve both (paper §4.2.2).
        pad = _landingpad_of(inst)
        return (kind, inst.type, tuple(x.type for x in inst.args),
                None if pad is None else pad.type)
    if isinstance(inst, CallInst):
        return kind, inst.type, tuple(x.type for x in inst.args)
    if isinstance(inst, BranchInst):
        return kind, inst.type, inst.is_conditional
    if isinstance(inst, SwitchInst):
        return kind, inst.type, inst.condition.type, len(inst.cases())
    if isinstance(inst, ReturnInst):
        return kind, inst.type, None if inst.value is None else inst.value.type
    if isinstance(inst, UnreachableInst):
        return kind, inst.type
    return None


def instructions_match(inst_a: Instruction, inst_b: Instruction) -> bool:
    """Whether two instructions may be merged into one (paper's mergeable pairs)."""
    key = instruction_key(inst_a)
    return key is not None and key == instruction_key(inst_b)


def _landingpad_of(invoke: InvokeInst) -> Optional[LandingPadInst]:
    unwind = invoke.unwind_dest
    if not isinstance(unwind, BasicBlock):
        return None
    index = unwind.first_non_phi_index()
    if index < len(unwind.instructions) and isinstance(unwind.instructions[index],
                                                       LandingPadInst):
        return unwind.instructions[index]
    return None


#: The match key of every label outside a landing block.
_LABEL_KEY = "label"


def entry_key(entry: Entry) -> Optional[Hashable]:
    """The match class of a linearised entry; None matches nothing.

    Labels match labels (except landing blocks); instructions match through
    :func:`instruction_key`; a label never matches an instruction.
    """
    if isinstance(entry, LabelEntry):
        return None if is_landing_block(entry.block) else _LABEL_KEY
    return instruction_key(entry.instruction)


def entries_match(entry_a: Entry, entry_b: Entry) -> bool:
    """Alignment match predicate over linearised entries."""
    key = entry_key(entry_a)
    return key is not None and key == entry_key(entry_b)
