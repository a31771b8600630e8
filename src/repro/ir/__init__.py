"""The repro SSA intermediate representation.

This subpackage is a self-contained, LLVM-like SSA IR: types, values,
instructions, basic blocks, functions and modules, plus a builder, a textual
printer/parser pair, a verifier and a reference interpreter.  It is the
substrate on which the FMSA baseline and the SalSSA function-merging passes
operate.
"""

from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    LabelType,
    PointerType,
    StructType,
    Type,
    VoidType,
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    LABEL,
    VOID,
    function_type,
    int_type,
    parse_type,
    pointer_to,
)
from .values import (
    Argument,
    Constant,
    GlobalValue,
    GlobalVariable,
    UndefValue,
    User,
    Value,
    const_bool,
    const_float,
    const_int,
    undef,
)
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
    TerminatorInst,
    UnreachableInst,
    BINARY_OPS,
    CAST_OPS,
    COMMUTATIVE_OPS,
    FCMP_PREDICATES,
    ICMP_PREDICATES,
)
from .basic_block import BasicBlock
from .function import DIGEST_SCHEMA, Function
from .module import Module
from .builder import IRBuilder
from .printer import (
    canonical_function_text,
    print_function,
    print_instruction,
    print_module,
    value_ref,
)
from .parser import ParseError, parse_function, parse_module
from .verifier import VerificationError, verify_function, verify_module
from .interpreter import (
    BLOCK_PLAN_ANALYSIS,
    ExecutionResult,
    GuestException,
    Interpreter,
    InterpreterError,
    Pointer,
    StepLimitExceeded,
    block_plans,
    run_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
