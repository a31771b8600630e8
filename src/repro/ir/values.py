"""Core value classes for the repro SSA IR.

Everything that can appear as an operand of an instruction is a :class:`Value`.
Values track their uses (who uses them and in which operand slot) so that
transformations such as ``replace_all_uses_with`` — heavily used by the merging
code generators and by mem2reg/SSA reconstruction — are cheap and safe.

The class hierarchy is deliberately close to LLVM's:

``Value``
    ``Constant`` (integer/float/bool/null constants)
    ``UndefValue``
    ``Argument`` (formal function parameter)
    ``GlobalValue`` (``GlobalVariable`` and ``Function`` live in other modules)
    ``User`` → ``Instruction`` (defined in :mod:`repro.ir.instructions`)
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from .types import FloatType, IntType, PointerType, Type


class Value:
    """Base class for every SSA value.

    A value has a :class:`~repro.ir.types.Type`, an optional name (used for
    printing and for stable identities in tests), and a use list which records
    every ``(user, operand_index)`` pair that references it.
    """

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        self._uses: List[Tuple["User", int]] = []

    # ------------------------------------------------------------------ uses
    @property
    def uses(self) -> Tuple[Tuple["User", int], ...]:
        """All ``(user, operand_index)`` pairs currently referencing this value."""
        return tuple(self._uses)

    def users(self) -> List["User"]:
        """The distinct users of this value, in first-use order."""
        seen = []
        for user, _ in self._uses:
            if user not in seen:
                seen.append(user)
        return seen

    def num_uses(self) -> int:
        return len(self._uses)

    def is_used(self) -> bool:
        return bool(self._uses)

    def _add_use(self, user: "User", index: int) -> None:
        self._uses.append((user, index))

    def _remove_use(self, user: "User", index: int) -> None:
        try:
            self._uses.remove((user, index))
        except ValueError:
            pass

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every use of this value to use ``replacement`` instead."""
        if replacement is self:
            return
        for user, index in list(self._uses):
            user.set_operand(index, replacement)

    # ------------------------------------------------------------- utilities
    def ref(self) -> str:
        """Short printable reference (e.g. ``%x`` or a literal constant)."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.ref()} : {self.type}>"


def _get_local_name(value: "Value") -> str:
    return value._name


def _local_name(in_block: bool) -> property:
    """The ``name`` attribute of a function-local value.

    Every non-empty name written also goes into the enclosing function's
    name table, if it holds one (see
    :meth:`repro.ir.function.Function.unique_name`), which must stay a
    superset of the function's live local names.  The name lives in
    ``_name``: writing the instance ``__dict__`` instead would materialise a
    dict per IR object.  ``in_block`` says the value's ``parent`` is a block
    (instructions) rather than the function itself (blocks, arguments).
    """
    def set_name(value: "Value", name: str) -> None:
        value._name = name
        if name:
            function = value.parent
            if in_block and function is not None:
                function = function.parent
            if function is not None and function._name_table is not None:
                function._name_table.add(name)

    return property(_get_local_name, set_name)


#: ``name`` of a block or an argument, whose ``parent`` is the function.
FUNCTION_LOCAL_NAME = _local_name(in_block=False)
#: ``name`` of an instruction, whose ``parent`` is its block.
BLOCK_LOCAL_NAME = _local_name(in_block=True)


class User(Value):
    """A value that references other values through an operand list."""

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        self._operands: List[Optional[Value]] = []

    # -------------------------------------------------------------- operands
    @property
    def operands(self) -> Tuple[Optional[Value], ...]:
        return tuple(self._operands)

    def num_operands(self) -> int:
        return len(self._operands)

    def get_operand(self, index: int) -> Optional[Value]:
        return self._operands[index]

    def set_operand(self, index: int, value: Optional[Value]) -> None:
        """Replace operand ``index``, keeping use lists consistent."""
        old = self._operands[index]
        if old is value:
            return
        if old is not None:
            old._remove_use(self, index)
        self._operands[index] = value
        if value is not None:
            value._add_use(self, index)
        self._operands_mutated()

    def append_operand(self, value: Optional[Value]) -> int:
        """Append a new operand slot and return its index."""
        index = len(self._operands)
        self._operands.append(None)
        if value is None:
            self._operands_mutated()
        else:
            self.set_operand(index, value)
        return index

    def remove_operand(self, index: int) -> None:
        """Remove operand slot ``index`` (shifts later operand indices down)."""
        old = self._operands[index]
        if old is not None:
            old._remove_use(self, index)
        # Later slots shift down by one; their use records must be re-indexed.
        for later in range(index + 1, len(self._operands)):
            value = self._operands[later]
            if value is not None:
                value._remove_use(self, later)
        del self._operands[index]
        for new_index in range(index, len(self._operands)):
            value = self._operands[new_index]
            if value is not None:
                value._add_use(self, new_index)
        self._operands_mutated()

    def drop_all_operands(self) -> None:
        """Detach this user from all of its operands."""
        for index, value in enumerate(self._operands):
            if value is not None:
                value._remove_use(self, index)
        self._operands = []
        self._operands_mutated()

    def _operands_mutated(self) -> None:
        """Hook called after any operand-list change.

        :class:`~repro.ir.instructions.Instruction` overrides this to bump the
        mutation epoch of its enclosing function so cached analyses are
        detected as stale structurally rather than by convention.
        """

    def operand_values(self) -> Iterator[Value]:
        for operand in self._operands:
            if operand is not None:
                yield operand


class Constant(Value):
    """A literal constant of integer, float or pointer (null) type."""

    def __init__(self, type_: Type, value) -> None:
        super().__init__(type_, "")
        if isinstance(type_, IntType):
            # i1 constants are kept as 0/1 (LLVM prints them as false/true);
            # wider integers use the signed two's-complement value range.
            value = int(value) & 1 if type_.bits == 1 else type_.wrap(int(value))
        elif isinstance(type_, FloatType):
            value = float(value)
        self.value = value

    def ref(self) -> str:
        if isinstance(self.type, IntType) and self.type.bits == 1:
            return "true" if self.value else "false"
        if isinstance(self.type, PointerType):
            return "null"
        return str(self.value)

    def is_zero(self) -> bool:
        return not self.value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.type, self.value))


class UndefValue(Value):
    """The undefined value of a given type.

    SalSSA uses undef for phi incoming values that flow from basic blocks
    belonging exclusively to the *other* input function: by construction those
    flows can never be taken for the function identifier that would read them.
    """

    def __init__(self, type_: Type) -> None:
        super().__init__(type_, "")

    def ref(self) -> str:
        return "undef"

    def __eq__(self, other) -> bool:
        return isinstance(other, UndefValue) and other.type == self.type

    def __hash__(self) -> int:
        return hash(("undef", self.type))


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`."""

    name = FUNCTION_LOCAL_NAME
    parent = None  # read by the name setter before __init__ sets it

    def __init__(self, type_: Type, name: str = "", parent=None, index: int = -1) -> None:
        super().__init__(type_, name)
        self.parent = parent
        self.index = index


class GlobalValue(Value):
    """Base class for module-level named values (functions, global variables)."""

    def __init__(self, type_: Type, name: str) -> None:
        super().__init__(type_, name)
        self.parent = None

    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module-level variable; its value is a pointer to its contents."""

    def __init__(self, value_type: Type, name: str, initializer: Optional[Constant] = None,
                 is_constant: bool = False) -> None:
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant


def const_int(type_: IntType, value: int) -> Constant:
    """Build an integer constant of the given type."""
    return Constant(type_, value)


def const_float(type_: FloatType, value: float) -> Constant:
    """Build a floating point constant of the given type."""
    return Constant(type_, value)


def const_bool(value: bool) -> Constant:
    """Build an ``i1`` boolean constant."""
    return Constant(IntType(1), 1 if value else 0)


def undef(type_: Type) -> UndefValue:
    """Build the undef value of the given type."""
    return UndefValue(type_)
