"""Basic blocks for the repro SSA IR.

A basic block is itself a :class:`~repro.ir.values.Value` of label type so it
can be used directly as a branch target or as the block operand of a phi-node,
exactly as in LLVM.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .instructions import Instruction, PhiInst, TerminatorInst
from .types import LABEL
from .values import FUNCTION_LOCAL_NAME, Value


class BasicBlock(Value):
    """An ordered list of instructions ending (when well-formed) in a terminator."""

    name = FUNCTION_LOCAL_NAME
    parent = None  # read by the name setter before __init__ sets it

    def __init__(self, name: str = "", parent=None) -> None:
        super().__init__(LABEL, name)
        self.parent = parent  # Function
        self.instructions: List[Instruction] = []
        self._mutation_epoch = 0

    # --------------------------------------------------------------- epochs
    @property
    def mutation_epoch(self) -> int:
        """Monotonic counter bumped on every structural change to this block."""
        return self._mutation_epoch

    def notify_mutated(self) -> None:
        """Record a structural change, propagating to the parent function.

        Cached analyses (see :mod:`repro.analysis.manager`) key their entries
        on the function's epoch, so any bump invalidates them structurally.
        """
        self._mutation_epoch += 1
        parent = self.parent
        if parent is not None:
            parent.notify_mutated()

    # ------------------------------------------------------------ contents
    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, instruction: Instruction) -> Instruction:
        """Append an instruction to the end of the block."""
        instruction.parent = self
        self.instructions.append(instruction)
        self._attached(instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        instruction.parent = self
        self.instructions.insert(index, instruction)
        self._attached(instruction)
        return instruction

    def _attached(self, instruction: Instruction) -> None:
        """Bookkeeping after ``instruction`` joined this block."""
        self.notify_mutated()
        function = self.parent
        if function is not None and function._name_table is not None and instruction.name:
            function._name_table.add(instruction.name)

    def insert_before(self, existing: Instruction, instruction: Instruction) -> Instruction:
        return self.insert(self.instructions.index(existing), instruction)

    def insert_after(self, existing: Instruction, instruction: Instruction) -> Instruction:
        return self.insert(self.instructions.index(existing) + 1, instruction)

    def insert_before_terminator(self, instruction: Instruction) -> Instruction:
        terminator = self.terminator
        if terminator is None:
            return self.append(instruction)
        return self.insert_before(terminator, instruction)

    def remove_instruction(self, instruction: Instruction) -> None:
        self.instructions.remove(instruction)
        instruction.parent = None
        self.notify_mutated()

    # ----------------------------------------------------------- structure
    @property
    def terminator(self) -> Optional[TerminatorInst]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def has_terminator(self) -> bool:
        return self.terminator is not None

    def phis(self) -> List[PhiInst]:
        """The phi-nodes at the top of this block."""
        result = []
        for instruction in self.instructions:
            if isinstance(instruction, PhiInst):
                result.append(instruction)
            else:
                break
        return result

    def non_phi_instructions(self) -> List[Instruction]:
        return [inst for inst in self.instructions if not isinstance(inst, PhiInst)]

    def first_non_phi_index(self) -> int:
        for index, instruction in enumerate(self.instructions):
            if not isinstance(instruction, PhiInst):
                return index
        return len(self.instructions)

    def successors(self) -> List["BasicBlock"]:
        terminator = self.terminator
        if terminator is None:
            return []
        return [block for block in terminator.successors() if isinstance(block, BasicBlock)]

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks whose terminator targets this block (in deterministic order)."""
        preds: List[BasicBlock] = []
        for user, _ in self.uses:
            if isinstance(user, TerminatorInst) and user.parent is not None:
                block = user.parent
                if block not in preds and self in block.successors():
                    preds.append(block)
        return preds

    # ----------------------------------------------------------- utilities
    def erase_from_parent(self) -> None:
        """Detach the block from its function and drop all its instructions."""
        for instruction in list(self.instructions):
            instruction.drop_all_operands()
            instruction.parent = None
        self.instructions = []
        self.notify_mutated()
        if self.parent is not None:
            self.parent.remove_block(self)

    def ref(self) -> str:
        return f"%{self.name}" if self.name else "%<block>"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"
