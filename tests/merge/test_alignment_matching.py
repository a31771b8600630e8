"""Tests for linearisation, matching criteria and sequence alignment."""

import pytest

from repro.ir import parse_module
from repro.merge.alignment import align
from repro.merge.linearize import InstructionEntry, LabelEntry, linearize, sequence_length
from repro.merge.matching import entries_match, instructions_match, labels_match

from ..conftest import MOTIVATING_EXAMPLE


@pytest.fixture
def module():
    return parse_module(MOTIVATING_EXAMPLE)


class TestLinearize:
    def test_labels_and_instructions_in_order(self, module):
        f1 = module.get_function("f1")
        sequence = linearize(f1)
        assert isinstance(sequence[0], LabelEntry)
        assert sequence[0].block is f1.entry_block
        labels = [e for e in sequence if isinstance(e, LabelEntry)]
        assert len(labels) == len(f1.blocks)

    def test_phis_excluded_by_default(self, module):
        f2 = module.get_function("f2")
        without = linearize(f2)
        with_phis = linearize(f2, include_phis=True)
        assert len(with_phis) == len(without) + 1  # f2 has one phi
        assert not any(isinstance(e, InstructionEntry) and e.instruction.opcode == "phi"
                       for e in without)

    def test_sequence_length_matches(self, module):
        f1 = module.get_function("f1")
        assert sequence_length(f1) == len(linearize(f1))


class TestMatching:
    def test_same_opcode_same_types_match(self, module):
        f1 = module.get_function("f1")
        f2 = module.get_function("f2")
        call1 = f1.entry_block.instructions[0]
        call2 = f2.entry_block.instructions[0]
        assert instructions_match(call1, call2)

    def test_different_predicates_do_not_match(self, module):
        f1 = module.get_function("f1")
        f2 = module.get_function("f2")
        cmp1 = f1.value_by_name("x2")
        cmp2 = f2.value_by_name("v3")
        assert not instructions_match(cmp1, cmp2)  # slt vs ne

    def test_phis_never_match(self, module):
        f1 = module.get_function("f1")
        f2 = module.get_function("f2")
        assert not instructions_match(f1.phis()[0], f2.phis()[0])

    def test_calls_with_different_arity_do_not_match(self):
        module = parse_module("""
        declare i32 @one(i32)
        declare i32 @two(i32, i32)
        define i32 @f(i32 %x) {
        entry:
          %a = call i32 @one(i32 %x)
          %b = call i32 @two(i32 %x, i32 %x)
          ret i32 %a
        }
        """)
        f = module.get_function("f")
        a, b = f.entry_block.instructions[0], f.entry_block.instructions[1]
        assert not instructions_match(a, b)

    def test_conditional_vs_unconditional_branches(self, module):
        f1 = module.get_function("f1")
        f2 = module.get_function("f2")
        cond = f1.entry_block.terminator          # conditional
        uncond = f2.entry_block.terminator        # unconditional
        assert not instructions_match(cond, uncond)

    def test_labels_match_except_landing_blocks(self):
        module = parse_module("""
        declare i32 @ext(i32)
        define i32 @f(i32 %x) {
        entry:
          %r = invoke i32 @ext(i32 %x) to label %ok unwind label %pad
        ok:
          ret i32 %r
        pad:
          %lp = landingpad i32 cleanup
          ret i32 0
        }
        """)
        f = module.get_function("f")
        blocks = {b.name: b for b in f.blocks}
        assert labels_match(blocks["entry"], blocks["ok"])
        assert not labels_match(blocks["entry"], blocks["pad"])

    def test_invokes_match_only_with_same_landing_pad_type(self):
        module = parse_module("""
        declare i32 @ext(i32)
        define i32 @f(i32 %x) {
        entry:
          %a = invoke i32 @ext(i32 %x) to label %ok unwind label %pad32
        ok:
          %b = invoke i32 @ext(i32 %a) to label %done unwind label %pad64
        done:
          %c = invoke i32 @ext(i32 %b) to label %end unwind label %other32
        end:
          ret i32 %c
        pad32:
          %p = landingpad i32 cleanup
          ret i32 0
        pad64:
          %q = landingpad i64 cleanup
          ret i32 1
        other32:
          %r = landingpad i32 cleanup
          ret i32 2
        }
        """)
        f = module.get_function("f")
        a, b, c = (f.value_by_name(name) for name in ("a", "b", "c"))
        assert instructions_match(a, c)
        assert not instructions_match(a, b)
        assert not instructions_match(b, c)

    def test_entries_match_requires_same_kind(self, module):
        f1 = module.get_function("f1")
        label = LabelEntry(f1.entry_block)
        inst = InstructionEntry(f1.entry_block.instructions[0])
        assert not entries_match(label, inst)
        assert not entries_match(inst, label)


class TestAlignment:
    def test_identical_sequences_fully_match(self, module):
        f1 = module.get_function("f1")
        sequence = linearize(f1)
        result = align(sequence, sequence)
        assert result.matches == len(sequence)
        assert all(pair.is_match for pair in result.pairs)
        assert result.match_ratio == 1.0

    def test_alignment_preserves_order_and_covers_everything(self, module):
        f1 = module.get_function("f1")
        f2 = module.get_function("f2")
        seq1, seq2 = linearize(f1), linearize(f2)
        result = align(seq1, seq2)
        firsts = [p.first for p in result.pairs if p.first is not None]
        seconds = [p.second for p in result.pairs if p.second is not None]
        assert firsts == list(seq1)
        assert seconds == list(seq2)

    def test_only_legal_matches_are_produced(self, module):
        f1 = module.get_function("f1")
        f2 = module.get_function("f2")
        result = align(linearize(f1), linearize(f2))
        for pair in result.matched_pairs():
            assert entries_match(pair.first, pair.second)
        assert result.matches >= 6  # start call, end call, ret, labels, ...

    def test_dp_cell_accounting_is_quadratic(self, module):
        f1 = module.get_function("f1")
        f2 = module.get_function("f2")
        seq1, seq2 = linearize(f1), linearize(f2)
        result = align(seq1, seq2)
        assert result.dp_cells == (len(seq1) + 1) * (len(seq2) + 1)

    def test_empty_sequences(self):
        result = align([], [])
        assert result.pairs == [] and result.matches == 0
