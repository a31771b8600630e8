"""Tests for the IR verifier: it must accept good IR and reject broken IR."""

import pytest

from repro.ir import (
    BasicBlock,
    BranchInst,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    VerificationError,
    parse_module,
    verify_function,
    verify_module,
)
from repro.ir.instructions import BinaryInst, PhiInst, ReturnInst
from repro.ir.types import I1, I32
from repro.ir.values import Constant

from ..conftest import MOTIVATING_EXAMPLE


def simple_function():
    f = Function(FunctionType(I32, (I32,)), "f")
    entry = f.add_block("entry")
    builder = IRBuilder(entry)
    v = builder.add(f.args[0], Constant(I32, 1))
    builder.ret(v)
    return f


class TestAccepts:
    def test_valid_module(self):
        assert verify_module(parse_module(MOTIVATING_EXAMPLE)) == []

    def test_declarations_are_skipped(self):
        f = Function(FunctionType(I32, (I32,)), "decl")
        assert verify_function(f) == []


class TestRejects:
    @pytest.mark.parametrize("rename", ["arg", "block", "instruction"])
    def test_duplicate_local_name(self, rename):
        f = simple_function()
        inst = f.entry_block.instructions[0]
        inst.name = "x"
        target = {"arg": f.args[0], "block": f.entry_block,
                  "instruction": f.entry_block.instructions[1]}[rename]
        target.name = "x"
        errors = verify_function(f, raise_on_error=False)
        assert errors == ["@f: duplicate local name %x"]

    def test_missing_terminator(self):
        f = Function(FunctionType(I32, (I32,)), "f")
        entry = f.add_block("entry")
        IRBuilder(entry).add(f.args[0], Constant(I32, 1))
        errors = verify_function(f, raise_on_error=False)
        assert any("terminator" in e for e in errors)
        with pytest.raises(VerificationError):
            verify_function(f)

    def test_empty_block(self):
        f = simple_function()
        f.add_block("dangling")
        errors = verify_function(f, raise_on_error=False)
        assert any("empty" in e for e in errors)

    def test_terminator_not_last(self):
        f = Function(FunctionType(I32, (I32,)), "f")
        entry = f.add_block("entry")
        entry.append(ReturnInst(f.args[0]))
        entry.append(BinaryInst("add", f.args[0], Constant(I32, 1)))
        entry.append(ReturnInst(f.args[0]))
        errors = verify_function(f, raise_on_error=False)
        assert any("not the last" in e for e in errors)

    def test_phi_missing_incoming(self):
        f = Function(FunctionType(I32, (I32,)), "f")
        entry, a, b, join = (f.add_block(n) for n in ("entry", "a", "b", "join"))
        builder = IRBuilder(entry)
        builder.cond_br(Constant(I1, 1), a, b)
        IRBuilder(a).br(join)
        IRBuilder(b).br(join)
        jb = IRBuilder(join)
        phi = jb.phi(I32, [(f.args[0], a)])  # missing incoming for %b
        jb.ret(phi)
        errors = verify_function(f, raise_on_error=False)
        assert any("missing incoming" in e for e in errors)

    def test_phi_extraneous_incoming(self):
        f = Function(FunctionType(I32, (I32,)), "f")
        entry, join, unrelated = f.add_block("entry"), f.add_block("join"), f.add_block("x")
        IRBuilder(entry).br(join)
        IRBuilder(unrelated).br(join)
        # Make `unrelated` unreachable-free: point entry only.
        jb = IRBuilder(join)
        phi = jb.phi(I32, [(f.args[0], entry), (Constant(I32, 1), unrelated),
                           (Constant(I32, 2), BasicBlock("ghost"))])
        jb.ret(phi)
        errors = verify_function(f, raise_on_error=False)
        assert any("not a predecessor" in e for e in errors)

    def test_dominance_violation_detected(self):
        f = Function(FunctionType(I32, (I32,)), "f")
        entry, a, b, join = (f.add_block(n) for n in ("entry", "a", "b", "join"))
        builder = IRBuilder(entry)
        builder.cond_br(Constant(I1, 1), a, b)
        ab = IRBuilder(a)
        defined_in_a = ab.add(f.args[0], Constant(I32, 1))
        ab.br(join)
        IRBuilder(b).br(join)
        jb = IRBuilder(join)
        use = jb.add(defined_in_a, Constant(I32, 1))  # %a does not dominate %join
        jb.ret(use)
        errors = verify_function(f, raise_on_error=False)
        assert any("not dominated" in e for e in errors)

    def test_branch_to_foreign_block(self):
        f = simple_function()
        foreign = BasicBlock("foreign")
        entry = f.entry_block
        entry.terminator.erase_from_parent()
        entry.append(BranchInst(foreign))
        errors = verify_function(f, raise_on_error=False)
        assert any("outside the function" in e for e in errors)

    def test_landingpad_must_follow_invoke(self):
        text = """
        declare i32 @ext(i32)
        define i32 @f(i32 %x) {
        entry:
          br label %pad
        pad:
          %lp = landingpad i32 cleanup
          ret i32 %lp
        }
        """
        module = parse_module(text)
        errors = verify_module(module, raise_on_error=False)
        assert any("non-invoke" in e for e in errors)

    def test_module_verification_aggregates(self):
        module = Module("m")
        good = simple_function()
        module.add_function(good)
        bad = Function(FunctionType(I32, ()), "bad")
        bad.add_block("entry")
        module.add_function(bad)
        errors = verify_module(module, raise_on_error=False)
        assert errors and all("bad" in e for e in errors)
