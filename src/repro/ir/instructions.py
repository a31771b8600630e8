"""Instruction classes for the repro SSA IR.

The instruction set mirrors the LLVM constructs that matter to function
merging by sequence alignment:

* arithmetic / bitwise binary operations and comparisons,
* casts,
* memory operations (``alloca`` / ``load`` / ``store`` / ``getelementptr``),
* calls, ``invoke`` + ``landingpad`` (the Itanium landing-pad model of §4.2.2),
* control flow (``br``, ``switch``, ``ret``, ``unreachable``),
* SSA-specific instructions (``phi``, ``select``).

Instructions are :class:`~repro.ir.values.User` values: their operands are
tracked through use lists, so ``replace_all_uses_with`` and operand rewriting
(the backbone of the merging code generators) keep the IR consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .types import (
    FloatType,
    IntType,
    LabelType,
    PointerType,
    Type,
    VoidType,
    I1,
    VOID,
)
from .values import BLOCK_LOCAL_NAME, Constant, User, Value

# --------------------------------------------------------------------------
# Opcode groups
# --------------------------------------------------------------------------

INT_BINARY_OPS = (
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
)
FLOAT_BINARY_OPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
BINARY_OPS = INT_BINARY_OPS + FLOAT_BINARY_OPS

COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})

ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno")

CAST_OPS = (
    "trunc", "zext", "sext", "fptrunc", "fpext",
    "fptosi", "fptoui", "sitofp", "uitofp",
    "ptrtoint", "inttoptr", "bitcast",
)


class Instruction(User):
    """Base class of all instructions.

    Every instruction knows its parent basic block (``parent``).  Subclasses
    define :attr:`opcode` and override the small set of predicates the
    analyses and transforms rely on (:meth:`is_terminator`,
    :meth:`has_side_effects`, ...).
    """

    opcode: str = "<abstract>"
    name = BLOCK_LOCAL_NAME
    parent = None  # read by the name setter before __init__ sets it

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        self.parent = None  # BasicBlock

    # ---------------------------------------------------------- predicates
    def is_terminator(self) -> bool:
        return False

    def is_phi(self) -> bool:
        return isinstance(self, PhiInst)

    def is_commutative(self) -> bool:
        return False

    def has_side_effects(self) -> bool:
        """True if removing the instruction could change observable behaviour."""
        return False

    def produces_value(self) -> bool:
        return not isinstance(self.type, VoidType)

    # ---------------------------------------------------------- navigation
    @property
    def function(self):
        """The function containing this instruction (or None if detached)."""
        return self.parent.parent if self.parent is not None else None

    def _operands_mutated(self) -> None:
        # Operand rewrites invalidate cached analyses of the enclosing
        # function; detached instructions are accounted for on insertion.
        parent = self.parent
        if parent is not None:
            parent.notify_mutated()

    def erase_from_parent(self) -> None:
        """Remove this instruction from its block and drop its operands."""
        if self.parent is not None:
            self.parent.remove_instruction(self)
        self.drop_all_operands()

    # ------------------------------------------------------------- cloning
    def clone(self) -> "Instruction":
        """Create a detached copy of this instruction sharing its operands."""
        raise NotImplementedError(f"clone() not implemented for {type(self).__name__}")

    # ------------------------------------------------------------ printing
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.ref()}>"


class BinaryInst(Instruction):
    """A two-operand arithmetic or bitwise instruction."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in BINARY_OPS:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        super().__init__(lhs.type, name)
        self.opcode = opcode
        self.append_operand(lhs)
        self.append_operand(rhs)

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)

    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS

    def has_side_effects(self) -> bool:
        # Division and remainder can trap on divide-by-zero; keep them.
        return self.opcode in ("sdiv", "udiv", "srem", "urem")

    def clone(self) -> "BinaryInst":
        return BinaryInst(self.opcode, self.lhs, self.rhs, self.name)


class CmpInst(Instruction):
    """An integer (``icmp``) or floating point (``fcmp``) comparison."""

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate in ICMP_PREDICATES:
            self.opcode = "icmp"
        elif predicate in FCMP_PREDICATES:
            self.opcode = "fcmp"
        else:
            raise ValueError(f"unknown comparison predicate {predicate!r}")
        super().__init__(I1, name)
        self._predicate = predicate
        self.append_operand(lhs)
        self.append_operand(rhs)

    @property
    def predicate(self) -> str:
        return self._predicate

    @predicate.setter
    def predicate(self, predicate: str) -> None:
        # An in-place predicate rewrite changes the instruction's meaning as
        # much as an operand swap does; it must bump the owning function's
        # mutation epoch or cached analyses and content digests go stale.
        changed = predicate != self._predicate
        self._predicate = predicate
        if changed:
            self._operands_mutated()

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)

    def is_commutative(self) -> bool:
        return self.predicate in ("eq", "ne", "oeq", "one")

    def clone(self) -> "CmpInst":
        return CmpInst(self.predicate, self.lhs, self.rhs, self.name)


class CastInst(Instruction):
    """A type conversion instruction (``zext``, ``trunc``, ``bitcast``, ...)."""

    def __init__(self, opcode: str, value: Value, dest_type: Type, name: str = "") -> None:
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        super().__init__(dest_type, name)
        self.opcode = opcode
        self.append_operand(value)

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    def clone(self) -> "CastInst":
        return CastInst(self.opcode, self.value, self.type, self.name)


class AllocaInst(Instruction):
    """Stack allocation of one slot of ``allocated_type``; yields a pointer."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__(PointerType(allocated_type), name)
        self.allocated_type = allocated_type

    def has_side_effects(self) -> bool:
        return False

    def clone(self) -> "AllocaInst":
        return AllocaInst(self.allocated_type, self.name)


class LoadInst(Instruction):
    """Load the value stored at a pointer operand."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = "", loaded_type: Optional[Type] = None) -> None:
        if loaded_type is None:
            if not isinstance(pointer.type, PointerType):
                raise TypeError("load requires a pointer operand or an explicit type")
            loaded_type = pointer.type.pointee
        super().__init__(loaded_type, name)
        self.append_operand(pointer)

    @property
    def pointer(self) -> Value:
        return self.get_operand(0)

    def has_side_effects(self) -> bool:
        # Loads are not removed by our simple DCE unless proven dead by mem2reg.
        return False

    def clone(self) -> "LoadInst":
        return LoadInst(self.pointer, self.name, loaded_type=self.type)


class StoreInst(Instruction):
    """Store a value to a pointer operand."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value, name: str = "") -> None:
        super().__init__(VOID, name)
        self.append_operand(value)
        self.append_operand(pointer)

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def pointer(self) -> Value:
        return self.get_operand(1)

    def has_side_effects(self) -> bool:
        return True

    def clone(self) -> "StoreInst":
        return StoreInst(self.value, self.pointer, self.name)


class GEPInst(Instruction):
    """A simplified ``getelementptr``: pointer plus integer indices."""

    opcode = "getelementptr"

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = "",
                 result_type: Optional[Type] = None) -> None:
        if result_type is None:
            result_type = _gep_result_type(pointer.type, len(indices))
        super().__init__(result_type, name)
        self.append_operand(pointer)
        for index in indices:
            self.append_operand(index)

    @property
    def pointer(self) -> Value:
        return self.get_operand(0)

    @property
    def indices(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    def clone(self) -> "GEPInst":
        return GEPInst(self.pointer, list(self.indices), self.name, result_type=self.type)


def _gep_result_type(pointer_type: Type, num_indices: int) -> Type:
    """Compute a best-effort result type for a GEP over simple types."""
    if not isinstance(pointer_type, PointerType):
        return pointer_type
    current = pointer_type.pointee
    # First index steps over the pointer itself; the rest descend into arrays.
    for _ in range(max(0, num_indices - 1)):
        element = getattr(current, "element", None)
        if element is None:
            break
        current = element
    return PointerType(current)


class CallInst(Instruction):
    """A direct or indirect function call."""

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = "",
                 return_type: Optional[Type] = None) -> None:
        if return_type is None:
            return_type = _callee_return_type(callee)
        super().__init__(return_type, name)
        self.append_operand(callee)
        for arg in args:
            self.append_operand(arg)

    @property
    def callee(self) -> Value:
        return self.get_operand(0)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    def has_side_effects(self) -> bool:
        return True

    def clone(self) -> "CallInst":
        return CallInst(self.callee, list(self.args), self.name, return_type=self.type)


def _callee_return_type(callee: Value) -> Type:
    function_type = getattr(callee, "function_type", None)
    if function_type is not None:
        return function_type.return_type
    if isinstance(callee.type, PointerType) and hasattr(callee.type.pointee, "return_type"):
        return callee.type.pointee.return_type
    raise TypeError("cannot infer call return type; pass return_type explicitly")


class TerminatorInst(Instruction):
    """Base class of instructions that end a basic block."""

    def is_terminator(self) -> bool:
        return True

    def has_side_effects(self) -> bool:
        return True

    def successors(self) -> List["Value"]:
        """The basic blocks this terminator can transfer control to."""
        return [op for op in self.operand_values() if isinstance(op.type, LabelType)]

    def replace_successor(self, old, new) -> None:
        """Replace every successor edge to ``old`` with ``new``."""
        for index, operand in enumerate(self.operands):
            if operand is old:
                self.set_operand(index, new)


class BranchInst(TerminatorInst):
    """An unconditional (``br label``) or conditional (``br i1, l1, l2``) branch."""

    opcode = "br"

    def __init__(self, *args, name: str = "") -> None:
        super().__init__(VOID, name)
        if len(args) == 1:
            (target,) = args
            self.append_operand(target)
        elif len(args) == 3:
            condition, if_true, if_false = args
            self.append_operand(condition)
            self.append_operand(if_true)
            self.append_operand(if_false)
        else:
            raise ValueError("BranchInst takes (target) or (cond, if_true, if_false)")

    @property
    def is_conditional(self) -> bool:
        return self.num_operands() == 3

    @property
    def condition(self) -> Optional[Value]:
        return self.get_operand(0) if self.is_conditional else None

    @property
    def if_true(self):
        return self.get_operand(1) if self.is_conditional else self.get_operand(0)

    @property
    def if_false(self):
        return self.get_operand(2) if self.is_conditional else None

    def clone(self) -> "BranchInst":
        if self.is_conditional:
            return BranchInst(self.condition, self.if_true, self.if_false, name=self.name)
        return BranchInst(self.if_true, name=self.name)


class SwitchInst(TerminatorInst):
    """A multi-way branch on an integer value."""

    opcode = "switch"

    def __init__(self, condition: Value, default, cases: Iterable[Tuple[Constant, Value]] = (),
                 name: str = "") -> None:
        super().__init__(VOID, name)
        self.append_operand(condition)
        self.append_operand(default)
        for case_value, case_block in cases:
            self.append_operand(case_value)
            self.append_operand(case_block)

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    @property
    def default(self):
        return self.get_operand(1)

    def cases(self) -> List[Tuple[Value, Value]]:
        result = []
        for index in range(2, self.num_operands(), 2):
            result.append((self.get_operand(index), self.get_operand(index + 1)))
        return result

    def add_case(self, case_value: Constant, case_block) -> None:
        self.append_operand(case_value)
        self.append_operand(case_block)

    def clone(self) -> "SwitchInst":
        return SwitchInst(self.condition, self.default, self.cases(), name=self.name)


class ReturnInst(TerminatorInst):
    """Return from the enclosing function, optionally with a value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None, name: str = "") -> None:
        super().__init__(VOID, name)
        if value is not None:
            self.append_operand(value)

    @property
    def value(self) -> Optional[Value]:
        return self.get_operand(0) if self.num_operands() else None

    def clone(self) -> "ReturnInst":
        return ReturnInst(self.value, name=self.name)


class UnreachableInst(TerminatorInst):
    """Marks a point that control flow can never reach."""

    opcode = "unreachable"

    def __init__(self, name: str = "") -> None:
        super().__init__(VOID, name)

    def clone(self) -> "UnreachableInst":
        return UnreachableInst(name=self.name)


class InvokeInst(TerminatorInst):
    """A call with exceptional control flow: normal and unwind successors."""

    opcode = "invoke"

    def __init__(self, callee: Value, args: Sequence[Value], normal_dest, unwind_dest,
                 name: str = "", return_type: Optional[Type] = None) -> None:
        if return_type is None:
            return_type = _callee_return_type(callee)
        super().__init__(return_type, name)
        self.append_operand(callee)
        for arg in args:
            self.append_operand(arg)
        self._num_args = len(args)
        self.append_operand(normal_dest)
        self.append_operand(unwind_dest)

    @property
    def callee(self) -> Value:
        return self.get_operand(0)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[1:1 + self._num_args]

    @property
    def normal_dest(self):
        return self.get_operand(1 + self._num_args)

    @property
    def unwind_dest(self):
        return self.get_operand(2 + self._num_args)

    def set_normal_dest(self, block) -> None:
        self.set_operand(1 + self._num_args, block)

    def set_unwind_dest(self, block) -> None:
        self.set_operand(2 + self._num_args, block)

    def clone(self) -> "InvokeInst":
        return InvokeInst(self.callee, list(self.args), self.normal_dest,
                          self.unwind_dest, self.name, return_type=self.type)


class LandingPadInst(Instruction):
    """The instruction that receives an in-flight exception (Itanium ABI)."""

    opcode = "landingpad"

    def __init__(self, type_: Type, cleanup: bool = True, name: str = "") -> None:
        super().__init__(type_, name)
        self.cleanup = cleanup

    def has_side_effects(self) -> bool:
        return True

    def clone(self) -> "LandingPadInst":
        return LandingPadInst(self.type, self.cleanup, self.name)


class PhiInst(Instruction):
    """An SSA phi-node: selects a value based on the predecessor block taken.

    Operands alternate ``value, block, value, block, ...``.
    """

    opcode = "phi"

    def __init__(self, type_: Type, incomings: Iterable[Tuple[Value, Value]] = (),
                 name: str = "") -> None:
        super().__init__(type_, name)
        for value, block in incomings:
            self.add_incoming(value, block)

    def add_incoming(self, value: Value, block) -> None:
        self.append_operand(value)
        self.append_operand(block)

    def num_incoming(self) -> int:
        return self.num_operands() // 2

    def incoming(self) -> List[Tuple[Value, Value]]:
        pairs = []
        for index in range(0, self.num_operands(), 2):
            pairs.append((self.get_operand(index), self.get_operand(index + 1)))
        return pairs

    def incoming_values(self) -> List[Value]:
        return [value for value, _ in self.incoming()]

    def incoming_blocks(self) -> List[Value]:
        return [block for _, block in self.incoming()]

    def incoming_value_for_block(self, block) -> Optional[Value]:
        for value, incoming_block in self.incoming():
            if incoming_block is block:
                return value
        return None

    def set_incoming_value_for_block(self, block, value: Value) -> bool:
        for index in range(1, self.num_operands(), 2):
            if self.get_operand(index) is block:
                self.set_operand(index - 1, value)
                return True
        return False

    def remove_incoming_for_block(self, block) -> bool:
        for index in range(1, self.num_operands(), 2):
            if self.get_operand(index) is block:
                self.remove_operand(index)
                self.remove_operand(index - 1)
                return True
        return False

    def replace_incoming_block(self, old_block, new_block) -> None:
        for index in range(1, self.num_operands(), 2):
            if self.get_operand(index) is old_block:
                self.set_operand(index, new_block)

    def clone(self) -> "PhiInst":
        return PhiInst(self.type, self.incoming(), self.name)


class SelectInst(Instruction):
    """Select between two values based on an ``i1`` condition.

    The merging code generators use selects on the function identifier to
    choose between mismatching operands of merged instructions (paper Fig. 8).
    """

    opcode = "select"

    def __init__(self, condition: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        super().__init__(if_true.type, name)
        self.append_operand(condition)
        self.append_operand(if_true)
        self.append_operand(if_false)

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    @property
    def if_true(self) -> Value:
        return self.get_operand(1)

    @property
    def if_false(self) -> Value:
        return self.get_operand(2)

    def clone(self) -> "SelectInst":
        return SelectInst(self.condition, self.if_true, self.if_false, self.name)
