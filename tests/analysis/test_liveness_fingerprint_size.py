"""Tests for liveness, fingerprints/ranking and the size models."""

from repro.analysis.fingerprint import Fingerprint
from repro.analysis.liveness import compute_liveness, user_blocks
from repro.analysis.size_model import ARM_THUMB, X86_64, get_target, instruction_count
from repro.ir import parse_module
from repro.search import make_index

import pytest


PROGRAM = """
declare i32 @ext(i32)

define i32 @small(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define i32 @medium(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  %c = call i32 @ext(i32 %b)
  ret i32 %c
}

define i32 @medium_clone(i32 %x) {
entry:
  %a = add i32 %x, 3
  %b = mul i32 %a, 4
  %c = call i32 @ext(i32 %b)
  ret i32 %c
}

define double @floaty(double %x) {
entry:
  %a = fmul double %x, 2.0
  %b = fadd double %a, 1.0
  ret double %b
}
"""

LIVE = """
define i32 @live(i32 %n) {
entry:
  %base = add i32 %n, 1
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %i, %base
  %c = icmp slt i32 %next, 100
  br i1 %c, label %loop, label %exit
exit:
  %r = add i32 %next, %base
  ret i32 %r
}
"""


class TestLiveness:
    def test_value_live_across_loop(self):
        function = parse_module(LIVE).get_function("live")
        blocks = {b.name: b for b in function.blocks}
        info = compute_liveness(function)
        base = function.value_by_name("base")
        assert base in info.live_out[blocks["entry"]]
        assert base in info.live_in[blocks["loop"]]
        assert base in info.live_in[blocks["exit"]]
        assert info.max_pressure() >= 2

    def test_phi_operands_live_at_predecessor_exit(self):
        function = parse_module(LIVE).get_function("live")
        blocks = {b.name: b for b in function.blocks}
        info = compute_liveness(function)
        next_value = function.value_by_name("next")
        assert next_value in info.live_out[blocks["loop"]]

    def test_user_blocks(self):
        function = parse_module(LIVE).get_function("live")
        blocks = {b.name: b for b in function.blocks}
        base = function.value_by_name("base")
        assert user_blocks(base) == {blocks["loop"], blocks["exit"]}


class TestFingerprint:
    def test_similar_functions_rank_closer(self):
        module = parse_module(PROGRAM)
        medium = module.get_function("medium")
        clone = module.get_function("medium_clone")
        floaty = module.get_function("floaty")
        fp = Fingerprint.of(medium)
        assert fp.distance(Fingerprint.of(clone)) < fp.distance(Fingerprint.of(floaty))
        assert fp.similarity(Fingerprint.of(clone)) == 1.0
        assert 0.0 <= fp.similarity(Fingerprint.of(floaty)) < 1.0

    def test_ranking_returns_best_candidates_first(self):
        module = parse_module(PROGRAM)
        ranking = make_index(module, min_size=2)
        medium = module.get_function("medium")
        candidates = ranking.candidates_for(medium, threshold=2)
        assert candidates[0].function.name == "medium_clone"
        assert len(candidates) == 2

    def test_ranking_respects_threshold_and_exclusions(self):
        module = parse_module(PROGRAM)
        ranking = make_index(module, min_size=2)
        medium = module.get_function("medium")
        clone = module.get_function("medium_clone")
        assert len(ranking.candidates_for(medium, threshold=1)) == 1
        excluded = ranking.candidates_for(medium, threshold=3, exclude={clone})
        assert all(c.function is not clone for c in excluded)
        ranking.remove(clone)
        assert all(c.function is not clone
                   for c in ranking.candidates_for(medium, threshold=5))

    def test_functions_by_size_descending(self):
        module = parse_module(PROGRAM)
        ranking = make_index(module, min_size=1)
        ordered = ranking.functions_by_size()
        sizes = [f.num_instructions() for f in ordered]
        assert sizes == sorted(sizes, reverse=True)


class TestSizeModel:
    def test_function_size_positive_and_monotone(self):
        module = parse_module(PROGRAM)
        small = module.get_function("small")
        medium = module.get_function("medium")
        assert X86_64.function_size(small) > 0
        assert X86_64.function_size(medium) > X86_64.function_size(small)

    def test_declarations_cost_nothing(self):
        module = parse_module(PROGRAM)
        ext = module.get_function("ext")
        assert X86_64.function_size(ext) == 0

    def test_module_size_is_sum_of_functions(self):
        module = parse_module(PROGRAM)
        assert X86_64.module_size(module) == sum(
            X86_64.function_size(f) for f in module.defined_functions())

    def test_thumb_is_denser_than_x86(self):
        module = parse_module(PROGRAM)
        medium = module.get_function("medium")
        assert ARM_THUMB.function_size(medium) < X86_64.function_size(medium)

    def test_get_target(self):
        assert get_target("x86_64") is X86_64
        assert get_target("arm_thumb") is ARM_THUMB
        with pytest.raises(KeyError):
            get_target("riscv")

    def test_instruction_count_matches(self):
        module = parse_module(PROGRAM)
        assert instruction_count(module.get_function("small")) == 2
