"""Parser for the textual IR emitted by :mod:`repro.ir.printer`.

The parser supports the complete instruction set of the IR and is used by the
test-suite and the examples to write readable IR fixtures (including the
paper's motivating example, Figure 2) instead of long builder call chains.

Grammar notes
-------------
* One instruction per line; comments start with ``;``.
* Functions are ``define <ret> @name(<type> %arg, ...) { ... }`` blocks with
  ``label:`` lines introducing basic blocks.
* Declarations are ``declare <ret> @name(<type>, ...)``.
* Operands may reference values defined later in the function (e.g. loop
  phis); resolution is deferred until the function body has been fully read.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

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
    BINARY_OPS,
    CAST_OPS,
    ICMP_PREDICATES,
    FCMP_PREDICATES,
)
from .module import Module
from .types import FloatType, FunctionType, IntType, PointerType, Type, VOID, parse_type, _split_top_level
from .values import Constant, GlobalVariable, UndefValue, Value


class ParseError(ValueError):
    """Raised when the textual IR cannot be parsed."""

    def __init__(self, message: str, line: Optional[str] = None) -> None:
        if line is not None:
            message = f"{message} (in line: {line.strip()!r})"
        super().__init__(message)


class _Placeholder(Value):
    """A forward reference to a named local value, patched after parsing."""

    def __init__(self, type_: Type, name: str) -> None:
        super().__init__(type_, name)


def _strip_comment(line: str) -> str:
    index = line.find(";")
    return line if index < 0 else line[:index]


def _split_leading_type(text: str) -> Tuple[Type, str]:
    """Split ``<type> <rest>``, greedily matching the longest leading type.

    Splitting at the first space silently truncates spellings that contain
    spaces — ``i32 (i32)* %p`` is one function-pointer type plus a value, and
    ``[4 x i32] %v`` one array type — so the longest whitespace-delimited
    prefix that parses as a type wins.  Values never begin with ``(``, so a
    first token that parses and a remainder not opening a parameter list is
    the (overwhelmingly common) fast path.
    """
    text = text.strip()
    head, _, tail = text.partition(" ")
    if not tail.lstrip().startswith("("):
        try:
            return parse_type(head), tail.lstrip()
        except ValueError:
            pass
    for match in reversed(list(re.finditer(r"\s+", text))):
        prefix = text[:match.start()]
        try:
            return parse_type(prefix), text[match.end():]
        except ValueError:
            continue
    raise ParseError("cannot split leading type", text)


def parse_module(text: str, name: str = "module", into: Optional[Module] = None) -> Module:
    """Parse a whole module from textual IR.

    Parsing is two-phase so that functions may reference globals and functions
    declared or defined *later* in the file: the first phase creates every
    top-level entity (globals, declarations and function signatures), the
    second parses function bodies.

    With ``into`` the entities are added to an existing module instead of a
    fresh one, so new functions can reference what that module already defines.
    """
    # Honour the "; module: <name>" header the printer emits so that a
    # print/parse round trip preserves the module name.
    header = re.search(r"^;\s*module:\s*(\S+)\s*$", text, re.MULTILINE)
    if header and name == "module":
        name = header.group(1)
    module = into if into is not None else Module(name)
    lines = [l for l in (_strip_comment(raw) for raw in text.splitlines())]
    pending: List[Tuple[Function, List[str]]] = []
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        if not line:
            index += 1
            continue
        if line.startswith("@"):
            _parse_global(module, line)
            index += 1
        elif line.startswith("declare"):
            _parse_declaration(module, line)
            index += 1
        elif line.startswith("define"):
            body: List[str] = []
            header = line
            index += 1
            while index < len(lines) and lines[index].strip() != "}":
                body.append(lines[index])
                index += 1
            if index >= len(lines):
                raise ParseError("unterminated function body", header)
            index += 1  # skip '}'
            pending.append((_parse_definition_header(module, header), body))
        else:
            raise ParseError("unexpected top-level line", line)
    for function, body in pending:
        _FunctionBodyParser(module, function).parse(body)
    return module


def parse_function(text: str, module: Optional[Module] = None) -> Function:
    """Parse IR text and return its first function definition.

    If ``module`` is given the text is parsed in that module's context, so it
    may reference functions and globals the module already contains; the newly
    parsed entities are added to it.
    """
    existing = {f.name for f in module.functions} if module is not None else set()
    target = parse_module(text, into=module)
    result: Optional[Function] = None
    for function in target.functions:
        if function.name in existing:
            continue
        if not function.is_declaration() and result is None:
            result = function
    if result is None:
        for function in target.functions:
            if function.name not in existing:
                result = function
                break
    if result is None:
        raise ParseError("no function found in input")
    return result


def parse_named_function(text: str, module: Optional[Module] = None) -> Function:
    """Reconstruct one function from its *named* rendering.

    Inverse of :func:`repro.ir.printer.print_function`: it preserves every
    local argument, block and instruction name.  Names never change a
    function's
    ``content_digest`` (the canonical text strips them), but downstream
    consumers can tie-break on them — SalSSA's phi coalescing orders its
    candidates by value name — so a reconstruction that feeds further
    merging must round-trip names, not just structure.  Unknown ``@name``
    references are declared implicitly from their use-site types.
    """
    lines = [_strip_comment(raw) for raw in text.splitlines()]
    stripped = [line.strip() for line in lines if line.strip()]
    if not stripped:
        raise ParseError("empty function text")
    target = module if module is not None else Module("parsed")
    header = stripped[0]
    if header.startswith("declare"):
        return _parse_declaration(target, header)
    function = _parse_definition_header(target, header)
    body = stripped[1:]
    if not body or body[-1] != "}":
        raise ParseError("unterminated function body", header)
    _FunctionBodyParser(target, function, implicit_globals=True).parse(body[:-1])
    return function


# ---------------------------------------------------------------------------
# Top-level entities
# ---------------------------------------------------------------------------

_GLOBAL_RE = re.compile(r"^@([\w.$-]+)\s*=\s*(global|constant)\s+(.+)$")
_HEADER_RE = re.compile(r"^(define|declare)\s+(.+?)\s*@([\w.$-]+)\s*\((.*)\)\s*\{?\s*$")


def _parse_global(module: Module, line: str) -> None:
    match = _GLOBAL_RE.match(line)
    if not match:
        raise ParseError("malformed global", line)
    name, kind, rest = match.groups()
    rest = rest.strip()
    parts = rest.rsplit(" ", 1)
    if len(parts) == 2 and parts[1] not in ("zeroinitializer",):
        type_text, init_text = parts
        value_type = parse_type(type_text)
        initializer = _parse_constant_literal(init_text, value_type)
    else:
        value_type = parse_type(parts[0])
        initializer = None
    module.add_global(GlobalVariable(value_type, name, initializer, kind == "constant"))


def _parse_signature(params_text: str) -> Tuple[List[Type], List[str]]:
    param_types: List[Type] = []
    arg_names: List[str] = []
    params_text = params_text.strip()
    if not params_text:
        return param_types, arg_names
    for index, param in enumerate(_split_top_level(params_text)):
        param = param.strip()
        if param == "...":
            continue
        if "%" in param:
            type_text, _, name_text = param.rpartition("%")
            param_types.append(parse_type(type_text.strip()))
            arg_names.append(name_text.strip())
        else:
            param_types.append(parse_type(param))
            arg_names.append(f"arg{index}")
    return param_types, arg_names


def _parse_declaration(module: Module, line: str) -> Function:
    match = _HEADER_RE.match(line)
    if not match:
        raise ParseError("malformed declaration", line)
    _, return_text, name, params_text = match.groups()
    param_types, _ = _parse_signature(params_text)
    vararg = "..." in params_text
    function_type = FunctionType(parse_type(return_text), tuple(param_types), vararg)
    existing = module.get_function(name)
    if existing is not None:
        return existing
    return module.add_function(Function(function_type, name))


def _parse_definition_header(module: Module, header: str) -> Function:
    match = _HEADER_RE.match(header)
    if not match:
        raise ParseError("malformed function header", header)
    _, return_text, name, params_text = match.groups()
    param_types, arg_names = _parse_signature(params_text)
    function_type = FunctionType(parse_type(return_text), tuple(param_types))
    function = Function(function_type, name, arg_names)
    module.add_function(function)
    return function


def _parse_constant_literal(token: str, type_: Type):
    token = token.strip()
    if token == "undef":
        return UndefValue(type_)
    if token == "null":
        return Constant(type_, 0)
    if token in ("true", "false"):
        return Constant(IntType(1), 1 if token == "true" else 0)
    if isinstance(type_, FloatType):
        return Constant(type_, float(token))
    if isinstance(type_, IntType):
        return Constant(type_, int(token, 0))
    raise ParseError(f"cannot parse constant {token!r} of type {type_}")


# ---------------------------------------------------------------------------
# Function bodies
# ---------------------------------------------------------------------------

class _FunctionBodyParser:
    """Parses the body of one function, resolving forward references at the end.

    With ``implicit_globals`` unknown ``@name`` references are declared on the
    fly from their use-site type instead of raising — the mode used when
    reconstructing a single function outside its defining module (see
    :func:`parse_named_function`), where callees and globals are part of the
    function's meaning but their definitions are not in the text.
    """

    def __init__(self, module: Module, function: Function,
                 implicit_globals: bool = False) -> None:
        self.module = module
        self.function = function
        self.implicit_globals = implicit_globals
        self.symbols: Dict[str, Value] = {arg.name: arg for arg in function.args}
        self.placeholders: List[_Placeholder] = []

    # ----------------------------------------------------------- interface
    def parse(self, body: List[str]) -> None:
        # Pre-create all basic blocks so branches can reference them directly.
        current: Optional[BasicBlock] = None
        label_re = re.compile(r"^([\w.$-]+):\s*$")
        for raw in body:
            line = raw.strip()
            if not line:
                continue
            match = label_re.match(line)
            if match:
                block = BasicBlock(match.group(1))
                self.function.add_block(block)
                self.symbols[block.name] = block

        blocks = iter(self.function.blocks)
        if not self.function.blocks:
            # Single implicit entry block.
            current = self.function.add_block(BasicBlock("entry"))
            self.symbols["entry"] = current
        for raw in body:
            line = raw.strip()
            if not line:
                continue
            match = label_re.match(line)
            if match:
                current = self.function.block_by_name(match.group(1))
                continue
            if current is None:
                current = next(blocks)
            instruction = self._parse_instruction(line)
            current.append(instruction)
            if instruction.name:
                self.symbols[instruction.name] = instruction
        self._resolve_placeholders()

    # ---------------------------------------------------------- resolution
    def _resolve_placeholders(self) -> None:
        for inst in self.function.instructions():
            for index, operand in enumerate(inst.operands):
                if isinstance(operand, _Placeholder):
                    target = self.symbols.get(operand.name)
                    if target is None:
                        raise ParseError(
                            f"use of undefined value %{operand.name} in @{self.function.name}")
                    inst.set_operand(index, target)

    def _value(self, token: str, type_: Type) -> Value:
        token = token.strip()
        if token.startswith("%"):
            name = token[1:]
            existing = self.symbols.get(name)
            if existing is not None:
                return existing
            placeholder = _Placeholder(type_, name)
            self.placeholders.append(placeholder)
            return placeholder
        if token.startswith("@"):
            name = token[1:]
            target = self.module.get_function(name)
            if target is None:
                target = self.module.get_global(name)
            if target is None and self.implicit_globals:
                target = self._declare_implicit(name, type_)
            if target is None:
                raise ParseError(f"use of undefined global @{name}")
            return target
        return _parse_constant_literal(token, type_)

    def _declare_implicit(self, name: str, type_: Type) -> Value:
        """Declare an unknown global from the type its use site expects.

        A callee reference carries a pointer-to-function type, any other
        global a pointer to its value type; either way the declaration only
        has to be good enough for read-only analyses over the reconstructed
        function — it is never linked or executed.
        """
        if isinstance(type_, PointerType) and isinstance(type_.pointee, FunctionType):
            return self.module.declare_function(name, type_.pointee)
        value_type = type_.pointee if isinstance(type_, PointerType) else type_
        return self.module.add_global(GlobalVariable(value_type, name))

    def _typed_value(self, token: str) -> Value:
        """Parse ``<type> <ref>`` into a value."""
        token = token.strip()
        type_text, _, ref = token.rpartition(" ")
        return self._value(ref, parse_type(type_text))

    def _block(self, token: str) -> Value:
        token = token.strip()
        if token.startswith("label "):
            token = token[len("label "):].strip()
        name = token.lstrip("%")
        block = self.symbols.get(name)
        if block is None or not isinstance(block, BasicBlock):
            raise ParseError(f"unknown basic block %{name} in @{self.function.name}")
        return block

    # -------------------------------------------------------- instructions
    def _parse_instruction(self, line: str) -> Instruction:
        name = ""
        rest = line
        assign = re.match(r"^%([\w.$-]+)\s*=\s*(.+)$", line)
        if assign:
            name, rest = assign.group(1), assign.group(2).strip()
        opcode = rest.split(None, 1)[0]
        args_text = rest[len(opcode):].strip()

        inst = self._dispatch(opcode, args_text, rest)
        if inst.produces_value():
            inst.name = name
        return inst

    def _dispatch(self, opcode: str, args_text: str, full: str) -> Instruction:
        if opcode in BINARY_OPS:
            return self._parse_binary(opcode, args_text)
        if opcode in ("icmp", "fcmp"):
            return self._parse_cmp(args_text)
        if opcode in CAST_OPS:
            return self._parse_cast(opcode, args_text)
        if opcode == "select":
            return self._parse_select(args_text)
        if opcode == "alloca":
            return AllocaInst(parse_type(args_text))
        if opcode == "load":
            return self._parse_load(args_text)
        if opcode == "store":
            return self._parse_store(args_text)
        if opcode == "getelementptr":
            return self._parse_gep(args_text)
        if opcode == "call":
            return self._parse_call(args_text)
        if opcode == "invoke":
            return self._parse_invoke(args_text)
        if opcode == "landingpad":
            return self._parse_landingpad(args_text)
        if opcode == "phi":
            return self._parse_phi(args_text)
        if opcode == "br":
            return self._parse_br(args_text)
        if opcode == "switch":
            return self._parse_switch(args_text)
        if opcode == "ret":
            return self._parse_ret(args_text)
        if opcode == "unreachable":
            return UnreachableInst()
        raise ParseError(f"unknown opcode {opcode!r}", full)

    def _parse_binary(self, opcode: str, text: str) -> BinaryInst:
        type_, rest = _split_leading_type(text)
        lhs_text, rhs_text = _split_top_level(rest)
        return BinaryInst(opcode, self._value(lhs_text, type_), self._value(rhs_text, type_))

    def _parse_cmp(self, text: str) -> CmpInst:
        predicate, _, rest = text.partition(" ")
        type_, rest = _split_leading_type(rest)
        lhs_text, rhs_text = _split_top_level(rest)
        return CmpInst(predicate, self._value(lhs_text, type_), self._value(rhs_text, type_))

    def _parse_cast(self, opcode: str, text: str) -> CastInst:
        before, _, after = text.partition(" to ")
        type_text, _, ref = before.strip().rpartition(" ")
        return CastInst(opcode, self._value(ref, parse_type(type_text)), parse_type(after))

    def _parse_select(self, text: str) -> SelectInst:
        cond_text, true_text, false_text = _split_top_level(text)
        condition = self._typed_value(cond_text)
        return SelectInst(condition, self._typed_value(true_text), self._typed_value(false_text))

    def _parse_load(self, text: str) -> LoadInst:
        parts = _split_top_level(text)
        if len(parts) == 2:
            loaded_type = parse_type(parts[0])
            pointer = self._typed_value(parts[1])
        else:
            pointer = self._typed_value(parts[0])
            loaded_type = pointer.type.pointee if isinstance(pointer.type, PointerType) else VOID
        return LoadInst(pointer, loaded_type=loaded_type)

    def _parse_store(self, text: str) -> StoreInst:
        value_text, pointer_text = _split_top_level(text)
        return StoreInst(self._typed_value(value_text), self._typed_value(pointer_text))

    def _parse_gep(self, text: str) -> GEPInst:
        parts = _split_top_level(text)
        pointer = self._typed_value(parts[0])
        indices = [self._typed_value(p) for p in parts[1:]]
        return GEPInst(pointer, indices)

    def _parse_call_common(self, text: str) -> Tuple[Type, Value, List[Value], str]:
        match = re.match(r"^(.+?)\s+([@%][\w.$-]+)\s*\((.*)\)\s*(.*)$", text)
        if not match:
            raise ParseError("malformed call", text)
        return_type = parse_type(match.group(1).strip())
        args_text = match.group(3).strip()
        arg_tokens = _split_top_level(args_text) if args_text else []
        # An implicitly declared callee takes its parameter types from the
        # call's arguments, so a later use of it as a value (a select over
        # function pointers) prints with the type it was defined with.
        param_types = tuple(parse_type(token.strip().rpartition(" ")[0])
                            for token in arg_tokens)
        callee = self._value(match.group(2),
                             PointerType(FunctionType(return_type, param_types)))
        args = [self._typed_value(a) for a in arg_tokens]
        return return_type, callee, args, match.group(4).strip()

    def _parse_call(self, text: str) -> CallInst:
        return_type, callee, args, _ = self._parse_call_common(text)
        return CallInst(callee, args, return_type=return_type)

    def _parse_invoke(self, text: str) -> InvokeInst:
        return_type, callee, args, suffix = self._parse_call_common(text)
        match = re.match(r"^to\s+label\s+(%[\w.$-]+)\s+unwind\s+label\s+(%[\w.$-]+)$", suffix)
        if not match:
            raise ParseError("malformed invoke suffix", text)
        return InvokeInst(callee, args, self._block(match.group(1)), self._block(match.group(2)),
                          return_type=return_type)

    def _parse_landingpad(self, text: str) -> LandingPadInst:
        cleanup = text.endswith("cleanup")
        type_text = text[:-len("cleanup")].strip() if cleanup else text.strip()
        return LandingPadInst(parse_type(type_text), cleanup)

    def _parse_phi(self, text: str) -> PhiInst:
        # The type must be split off before scanning for ``[ value, %block ]``
        # incomings: function-pointer spellings contain spaces, and an array
        # type's own brackets must not be misread as an incoming pair.
        type_, rest = _split_leading_type(text)
        phi = PhiInst(type_)
        for pair_text in re.findall(r"\[([^\]]*)\]", rest):
            value_text, block_text = _split_top_level(pair_text)
            phi.add_incoming(self._value(value_text, type_), self._block(block_text))
        return phi

    def _parse_br(self, text: str) -> BranchInst:
        if text.startswith("label"):
            return BranchInst(self._block(text))
        parts = _split_top_level(text)
        condition = self._typed_value(parts[0])
        return BranchInst(condition, self._block(parts[1]), self._block(parts[2]))

    def _parse_switch(self, text: str) -> SwitchInst:
        head, _, cases_text = text.partition("[")
        cases_text = cases_text.rsplit("]", 1)[0].strip()
        parts = _split_top_level(head)
        condition = self._typed_value(parts[0])
        default = self._block(parts[1])
        cases: List[Tuple[Constant, Value]] = []
        if cases_text:
            # cases are "<type> <val>, label %bb" pairs separated by 2+ spaces
            for chunk in re.split(r"\s{2,}", cases_text):
                chunk = chunk.strip()
                if not chunk:
                    continue
                value_text, block_text = _split_top_level(chunk)
                cases.append((self._typed_value(value_text), self._block(block_text)))
        return SwitchInst(condition, default, cases)

    def _parse_ret(self, text: str) -> ReturnInst:
        text = text.strip()
        if not text or text == "void":
            return ReturnInst(None)
        return ReturnInst(self._typed_value(text))
