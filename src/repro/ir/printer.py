"""Textual printer for the repro SSA IR.

The output format intentionally resembles LLVM assembly so that IR dumps are
familiar to read and so that the companion :mod:`repro.ir.parser` can parse
them back (round-tripping is covered by property-based tests).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .basic_block import BasicBlock
from .function import Function
from .instructions import (
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
from .module import Module
from .values import Argument, Constant, GlobalValue, UndefValue, Value


def value_ref(value: Value) -> str:
    """Render a value as an operand reference (``%x``, ``@f``, ``42``, ``undef``)."""
    if value is None:
        return "<null-operand>"
    if isinstance(value, (Constant, UndefValue)):
        return value.ref()
    name = value.name
    if isinstance(value, GlobalValue):
        return f"@{name}"
    return f"%{name}" if name else "%<unnamed>"


def typed_ref(value: Value) -> str:
    """Render a value with its type, e.g. ``i32 %x``."""
    return f"{value.type} {value_ref(value)}"


def print_instruction(inst: Instruction, ref: Callable[[Value], str] = value_ref,
                      name: Optional[str] = None) -> str:
    """Render a single instruction (without indentation).

    ``ref`` renders operand references and ``name`` overrides the result name;
    the defaults reproduce the ordinary module/function printer, while the
    canonical renderer (:func:`canonical_function_text`) substitutes
    position-based identities for both.
    """
    def tref(value: Value) -> str:
        return f"{value.type} {ref(value)}"

    if inst.produces_value():
        label = inst.name if name is None else name
        prefix = f"%{label} = " if label else "%<unnamed> = "
    else:
        prefix = ""

    if isinstance(inst, BinaryInst):
        return f"{prefix}{inst.opcode} {inst.type} {ref(inst.lhs)}, {ref(inst.rhs)}"
    if isinstance(inst, CmpInst):
        return (f"{prefix}{inst.opcode} {inst.predicate} {inst.lhs.type} "
                f"{ref(inst.lhs)}, {ref(inst.rhs)}")
    if isinstance(inst, CastInst):
        return f"{prefix}{inst.opcode} {inst.value.type} {ref(inst.value)} to {inst.type}"
    if isinstance(inst, SelectInst):
        return (f"{prefix}select i1 {ref(inst.condition)}, "
                f"{tref(inst.if_true)}, {tref(inst.if_false)}")
    if isinstance(inst, AllocaInst):
        return f"{prefix}alloca {inst.allocated_type}"
    if isinstance(inst, LoadInst):
        return f"{prefix}load {inst.type}, {tref(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {tref(inst.value)}, {tref(inst.pointer)}"
    if isinstance(inst, GEPInst):
        indices = ", ".join(tref(i) for i in inst.indices)
        return f"{prefix}getelementptr {tref(inst.pointer)}, {indices}"
    if isinstance(inst, CallInst):
        args = ", ".join(tref(a) for a in inst.args)
        return f"{prefix}call {inst.type} {ref(inst.callee)}({args})"
    if isinstance(inst, InvokeInst):
        args = ", ".join(tref(a) for a in inst.args)
        return (f"{prefix}invoke {inst.type} {ref(inst.callee)}({args}) "
                f"to label {ref(inst.normal_dest)} unwind label {ref(inst.unwind_dest)}")
    if isinstance(inst, LandingPadInst):
        suffix = " cleanup" if inst.cleanup else ""
        return f"{prefix}landingpad {inst.type}{suffix}"
    if isinstance(inst, PhiInst):
        pairs = ", ".join(f"[ {ref(v)}, {ref(b)} ]" for v, b in inst.incoming())
        return f"{prefix}phi {inst.type} {pairs}"
    if isinstance(inst, BranchInst):
        if inst.is_conditional:
            return (f"br i1 {ref(inst.condition)}, label {ref(inst.if_true)}, "
                    f"label {ref(inst.if_false)}")
        return f"br label {ref(inst.if_true)}"
    if isinstance(inst, SwitchInst):
        cases = "  ".join(f"{tref(v)}, label {ref(b)}" for v, b in inst.cases())
        return f"switch {tref(inst.condition)}, label {ref(inst.default)} [ {cases} ]"
    if isinstance(inst, ReturnInst):
        if inst.value is None:
            return "ret void"
        return f"ret {tref(inst.value)}"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    raise NotImplementedError(f"cannot print {type(inst).__name__}")


def print_block(block: BasicBlock) -> str:
    lines = [f"{block.name}:"]
    for inst in block.instructions:
        lines.append(f"  {print_instruction(inst)}")
    return "\n".join(lines)


def print_function(function: Function) -> str:
    """Render a function definition or declaration."""
    params = ", ".join(f"{arg.type} %{arg.name}" for arg in function.args)
    header = f"{function.return_type} @{function.name}({params})"
    if function.is_declaration():
        return f"declare {header}"
    function.assign_names()
    lines: List[str] = [f"define {header} {{"]
    for block in function.blocks:
        lines.append(print_block(block))
    lines.append("}")
    return "\n".join(lines)


def canonical_function_text(function: Function) -> str:
    """A name-independent, deterministic rendering of one function.

    Position-based identities replace every local name — arguments become
    ``%a0..``, blocks ``%b0..`` and value-producing instructions ``%v0..`` in
    program order — and the function's own name is omitted, so two
    structurally identical functions render identically whatever they or
    their values are called, in any process.  Globals (including callees) are
    referenced by name: they are part of the function's meaning.  This is the
    serialization hashed into
    :meth:`repro.ir.function.Function.content_digest`, which keys the
    incremental pipeline's attempt cache; reordering or renaming local
    values only ever changes the digest conservatively (a cache miss, never
    a stale hit).
    """
    params = ", ".join(str(arg.type) for arg in function.args)
    header = f"{function.return_type} ({params})"
    if function.is_declaration():
        return f"declare {header}"
    names: Dict[object, str] = {}
    for index, arg in enumerate(function.args):
        names[arg] = f"a{index}"
    for index, block in enumerate(function.blocks):
        names[block] = f"b{index}"
    counter = 0
    for block in function.blocks:
        for inst in block.instructions:
            if inst.produces_value():
                names[inst] = f"v{counter}"
                counter += 1

    def ref(value: Value) -> str:
        if value is None:
            return "<null-operand>"
        if isinstance(value, (Constant, UndefValue)):
            return value.ref()
        canonical = names.get(value)
        if canonical is not None:
            return f"%{canonical}"
        if isinstance(value, GlobalValue):
            return f"@{value.name}"
        return "%<foreign>"

    lines: List[str] = [f"define {header} {{"]
    for block in function.blocks:
        lines.append(f"{names[block]}:")
        for inst in block.instructions:
            lines.append(f"  {print_instruction(inst, ref=ref, name=names.get(inst))}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render a whole module."""
    parts: List[str] = [f"; module: {module.name}"]
    for variable in module.globals:
        init = variable.initializer.ref() if variable.initializer is not None else "zeroinitializer"
        kind = "constant" if variable.is_constant else "global"
        parts.append(f"@{variable.name} = {kind} {variable.value_type} {init}")
    for function in module.functions:
        parts.append(print_function(function))
    return "\n\n".join(parts) + "\n"
