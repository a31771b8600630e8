"""Tests for the textual printer/parser pair (round-tripping included)."""

import pytest

from repro.ir import (
    ParseError,
    canonical_function_text,
    parse_function,
    parse_module,
    print_function,
    print_module,
    verify_module,
)
from repro.ir.instructions import InvokeInst, PhiInst, SelectInst, SwitchInst
from repro.ir.parser import parse_named_function

from ..conftest import MOTIVATING_EXAMPLE


FULL_COVERAGE = """
@counter = global i32 7

declare i32 @callee(i32, i32)
declare void @sink(i32)

define i32 @everything(i32 %x, double %d) {
entry:
  %slot = alloca i32
  store i32 %x, i32* %slot
  %v = load i32, i32* %slot
  %p = getelementptr i32* %slot, i32 0
  %sum = add i32 %v, 3
  %neg = sub i32 0, %sum
  %sh = shl i32 %sum, 2
  %f = fmul double %d, 2.5
  %c = icmp slt i32 %sum, 10
  %fc = fcmp olt double %f, 1.0
  %z = zext i1 %c to i32
  %sel = select i1 %c, i32 %z, i32 %sum
  %g = load i32, i32* @counter
  br i1 %c, label %then, label %other
then:
  %r1 = call i32 @callee(i32 %sel, i32 %g)
  call void @sink(i32 %r1)
  br label %join
other:
  switch i32 %sum, label %join [ i32 1, label %case1  i32 2, label %join ]
case1:
  %r2 = invoke i32 @callee(i32 %sum, i32 1) to label %join unwind label %lp
lp:
  %pad = landingpad i32 cleanup
  br label %join
join:
  %phi = phi i32 [ %r1, %then ], [ 0, %other ], [ %r2, %case1 ], [ %pad, %lp ]
  ret i32 %phi
}

define void @empty_return() {
entry:
  ret void
}
"""


class TestParsing:
    def test_parse_motivating_example(self):
        module = parse_module(MOTIVATING_EXAMPLE)
        assert module.get_function("f1") is not None
        assert module.get_function("f2") is not None
        assert len(module.declarations()) == 4
        verify_module(module)

    def test_parse_all_instruction_kinds(self):
        module = parse_module(FULL_COVERAGE)
        verify_module(module)
        f = module.get_function("everything")
        opcodes = {inst.opcode for inst in f.instructions()}
        assert {"alloca", "store", "load", "getelementptr", "add", "icmp", "fcmp",
                "zext", "select", "br", "switch", "invoke", "landingpad", "phi",
                "call", "ret", "shl", "fmul"} <= opcodes

    def test_forward_references_between_functions(self):
        text = """
        define i32 @a(i32 %x) {
        entry:
          %r = call i32 @b(i32 %x)
          ret i32 %r
        }
        define i32 @b(i32 %x) {
        entry:
          ret i32 %x
        }
        """
        module = parse_module(text)
        assert module.get_function("a") is not None

    def test_parse_function_into_existing_module(self):
        module = parse_module(MOTIVATING_EXAMPLE)
        new = parse_function("""
        define i32 @f3(i32 %n) {
        entry:
          %r = call i32 @start(i32 %n)
          ret i32 %r
        }
        """, module)
        assert new.name == "f3"
        assert module.get_function("f3") is new
        # The call resolves against the existing declaration.
        call = next(iter(new.instructions()))
        assert call.callee is module.get_function("start")

    def test_global_parsing(self):
        module = parse_module(FULL_COVERAGE)
        counter = module.get_global("counter")
        assert counter is not None
        assert counter.initializer.value == 7

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_module("define i32 @f( {")
        with pytest.raises(ParseError):
            parse_module("""
            define i32 @f(i32 %x) {
            entry:
              %r = call i32 @missing(i32 %x)
              ret i32 %r
            }
            """)
        with pytest.raises(ParseError):
            parse_module("""
            define i32 @f(i32 %x) {
            entry:
              %r = add i32 %undefined_value, 1
              ret i32 %r
            }
            """)
        with pytest.raises(ParseError):
            parse_function("")


class TestRoundTrip:
    @pytest.mark.parametrize("source", [MOTIVATING_EXAMPLE, FULL_COVERAGE])
    def test_print_parse_print_stable(self, source):
        module = parse_module(source)
        text_once = print_module(module)
        module_again = parse_module(text_once)
        assert print_module(module_again) == text_once
        verify_module(module_again)

    def test_printer_renders_every_instruction(self):
        module = parse_module(FULL_COVERAGE)
        text = print_function(module.get_function("everything"))
        for token in ("alloca i32", "store i32", "load i32", "getelementptr",
                      "icmp slt", "fcmp olt", "zext", "select i1", "switch i32",
                      "invoke i32", "landingpad", "phi i32", "ret i32"):
            assert token in text

    def test_roundtrip_preserves_structure(self):
        module = parse_module(FULL_COVERAGE)
        original = module.get_function("everything")
        reparsed = parse_module(print_module(module)).get_function("everything")
        assert reparsed.num_instructions() == original.num_instructions()
        assert len(reparsed.blocks) == len(original.blocks)
        assert [b.name for b in reparsed.blocks] == [b.name for b in original.blocks]

    def test_function_pointer_types_survive_the_round_trip(self):
        # Spellings with spaces inside the type ("i32 (i32)*") must not be
        # truncated at the first space: SalSSA's operand selection emits
        # phi/select/icmp over function pointers, and a lossy reparse (the
        # splice path) silently changes merge outcomes.
        source = """
        declare i32 @ext0(i32 %arg0)
        declare i32 @ext4(i32 %arg0)

        define i32 @fnptr(i1 %c, i32 %x) {
        entry:
          br i1 %c, label %a, label %b
        a:
          %opsel = select i1 %c, i32 (i32)* @ext0, i32 (i32)* @ext4
          br label %b
        b:
          %p = phi i32 (i32)* [ undef, %entry ], [ %opsel, %a ]
          %sel2 = select i1 %c, i32 (i32)* %p, i32 (i32)* @ext4
          %same = icmp eq i32 (i32)* %p, @ext0
          %r = call i32 %sel2(i32 %x)
          ret i32 %r
        }
        """
        text = print_module(parse_module(source))
        for token in ("phi i32 (i32)* [ undef",
                      "select i1 %c, i32 (i32)* %p",
                      "icmp eq i32 (i32)* %p"):
            assert token in text
        assert print_module(parse_module(text)) == text

    def test_array_typed_phi_round_trips(self):
        # An array type's own brackets must not be misread as incoming pairs.
        source = """
        define [2 x i32] @arr(i1 %c, [2 x i32] %v, [2 x i32] %w) {
        entry:
          br i1 %c, label %a, label %b
        a:
          br label %b
        b:
          %p = phi [2 x i32] [ %v, %entry ], [ %w, %a ]
          ret [2 x i32] %p
        }
        """
        module = parse_module(source)
        phi = next(i for i in module.get_function("arr").instructions()
                   if type(i).__name__ == "PhiInst")
        assert len(phi.incoming_blocks()) == 2
        text = print_module(module)
        assert print_module(parse_module(text)) == text

    def test_implicit_callee_takes_its_type_from_the_call(self):
        # A callee first seen in a direct call is declared with the call's
        # argument types, so its later use as a function-pointer value
        # prints with the same type it was called with.
        source = """
        define i32 @pick(i1 %c, i32 %x) {
        entry:
          %r = call i32 @ext(i32 %x, i32 %x)
          %fp = select i1 %c, i32 (i32, i32)* @ext, i32 (i32, i32)* @ext
          %s = call i32 %fp(i32 %r, i32 %x)
          ret i32 %s
        }
        """
        text = print_function(parse_named_function(source))
        rebuilt = parse_named_function(text)
        declared = rebuilt.parent.get_function("ext")
        assert str(declared.function_type) == "i32 (i32, i32)"
        assert print_function(rebuilt) == text


class TestCanonicalRoundTrip:
    """``parse_named_function`` inverts ``print_function`` for one function.

    The splice path parses each merged body back outside its module, and the
    incremental pipeline keys its cache on ``content_digest``: the rebuilt
    function must have the same canonical text, and therefore the same
    digest, as the original.
    """

    @pytest.mark.parametrize("source", [MOTIVATING_EXAMPLE, FULL_COVERAGE])
    def test_canonical_text_is_a_fixed_point(self, source):
        module = parse_module(source)
        for function in module.defined_functions():
            rebuilt = parse_named_function(print_function(function))
            assert canonical_function_text(rebuilt) == \
                canonical_function_text(function)
            assert print_function(rebuilt) == print_function(function)

    @pytest.mark.parametrize("source", [MOTIVATING_EXAMPLE, FULL_COVERAGE])
    def test_content_digest_survives_the_round_trip(self, source):
        module = parse_module(source)
        for function in module.defined_functions():
            rebuilt = parse_named_function(print_function(function))
            assert rebuilt.content_digest() == function.content_digest()

    def test_unknown_callees_and_globals_are_declared_implicitly(self):
        module = parse_module(FULL_COVERAGE)
        function = module.get_function("everything")
        rebuilt = parse_named_function(print_function(function))
        splice_module = rebuilt.parent
        # The call/invoke targets and @counter exist only as implicit
        # declarations in the reconstruction module.
        assert splice_module.get_function("callee") is not None
        assert splice_module.get_function("callee").is_declaration()
        assert splice_module.get_global("counter") is not None

    def test_rebuilt_functions_are_structurally_identical(self):
        module = parse_module(FULL_COVERAGE)
        function = module.get_function("everything")
        rebuilt = parse_named_function(print_function(function))
        assert rebuilt.num_instructions() == function.num_instructions()
        assert len(rebuilt.blocks) == len(function.blocks)
        assert [i.opcode for i in rebuilt.instructions()] == \
            [i.opcode for i in function.instructions()]

    def test_canonical_declaration_round_trips(self):
        module = parse_module(FULL_COVERAGE)
        declaration = module.get_function("callee")
        rebuilt = parse_named_function(print_function(declaration))
        assert rebuilt.is_declaration()
        assert rebuilt.name == "callee"
        assert canonical_function_text(rebuilt) == \
            canonical_function_text(declaration)

    def test_malformed_canonical_text_raises(self):
        with pytest.raises(ParseError):
            parse_named_function("")
        with pytest.raises(ParseError):
            parse_named_function("not a header at all")
        with pytest.raises(ParseError):
            parse_named_function("define i32 @f(i32 %x) {\nentry:\n  ret i32 %x")
