"""Unit tests for values, use lists and operand bookkeeping."""

from repro.ir.instructions import BinaryInst, SelectInst
from repro.ir.types import I1, I32
from repro.ir.values import Argument, Constant, UndefValue, const_bool, const_int, undef


class TestConstants:
    def test_int_constant_wraps_to_type(self):
        c = Constant(I32, 2**32 + 5)
        assert c.value == 5

    def test_equality_and_hash(self):
        assert const_int(I32, 3) == const_int(I32, 3)
        assert const_int(I32, 3) != const_int(I32, 4)
        assert hash(const_int(I32, 3)) == hash(const_int(I32, 3))

    def test_bool_rendering(self):
        assert const_bool(True).ref() == "true"
        assert const_bool(False).ref() == "false"

    def test_undef_equality(self):
        assert undef(I32) == undef(I32)
        assert undef(I32) != undef(I1)
        assert undef(I32).ref() == "undef"


class TestUseLists:
    def test_uses_recorded_per_operand_slot(self):
        a = Argument(I32, "a")
        b = Argument(I32, "b")
        inst = BinaryInst("add", a, a)
        assert inst.num_operands() == 2
        assert a.num_uses() == 2
        assert b.num_uses() == 0
        assert inst in a.users()

    def test_set_operand_updates_uses(self):
        a = Argument(I32, "a")
        b = Argument(I32, "b")
        inst = BinaryInst("add", a, a)
        inst.set_operand(1, b)
        assert a.num_uses() == 1
        assert b.num_uses() == 1
        assert inst.rhs is b

    def test_replace_all_uses_with(self):
        a = Argument(I32, "a")
        b = Argument(I32, "b")
        first = BinaryInst("add", a, a)
        second = BinaryInst("mul", a, first)
        a.replace_all_uses_with(b)
        assert a.num_uses() == 0
        assert first.lhs is b and first.rhs is b
        assert second.lhs is b
        assert second.rhs is first  # non-a operands untouched

    def test_replace_with_self_is_noop(self):
        a = Argument(I32, "a")
        inst = BinaryInst("add", a, a)
        a.replace_all_uses_with(a)
        assert a.num_uses() == 2
        assert inst.lhs is a

    def test_drop_all_operands(self):
        a = Argument(I32, "a")
        inst = BinaryInst("add", a, a)
        inst.drop_all_operands()
        assert a.num_uses() == 0
        assert inst.num_operands() == 0

    def test_remove_operand_reindexes_uses(self):
        cond = Argument(I1, "c")
        a = Argument(I32, "a")
        b = Argument(I32, "b")
        inst = SelectInst(cond, a, b)
        inst.remove_operand(0)
        assert inst.num_operands() == 2
        assert cond.num_uses() == 0
        # The remaining operands keep working use bookkeeping.
        inst.set_operand(0, b)
        assert a.num_uses() == 0
        assert b.num_uses() == 2

    def test_users_deduplicated_in_order(self):
        a = Argument(I32, "a")
        i1 = BinaryInst("add", a, a)
        i2 = BinaryInst("sub", a, a)
        assert a.users() == [i1, i2]


class TestUseFreeValues:
    def test_constants_and_undefs_keep_no_use_list(self):
        c = const_int(I32, 3)
        u = undef(I32)
        inst = BinaryInst("add", c, u)
        assert inst.lhs is c and inst.rhs is u
        assert c.num_uses() == 0 and not c.is_used() and c.users() == []
        assert u.num_uses() == 0 and u.uses == ()
        inst.set_operand(0, u)
        inst.drop_all_operands()
        assert u.num_uses() == 0


class TestDropAllReferences:
    SOURCE = """
declare i32 @ext(i32)
@g = global i32 0

define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %v = load i32, i32* @g
  %b = call i32 @ext(i32 %a)
  %c = add i32 %b, %v
  ret i32 %c
}

define i32 @h(i32 %y) {
entry:
  %d = mul i32 %y, 2
  ret i32 %d
}
"""

    def test_detaches_only_values_that_outlive_the_function(self):
        from repro.ir import parse_module

        module = parse_module(self.SOURCE)
        f = module.get_function("f")
        callee = module.get_function("ext")
        variable = module.get_global("g")
        foreign, foreign_ret = module.get_function("h").blocks[0].instructions
        a, v, call, c, _ = f.blocks[0].instructions
        # A reference into another function, as a merge rolled back halfway
        # through code generation leaves behind.
        c.set_operand(1, foreign)
        assert foreign.users() == [foreign_ret, c]
        epoch = f.mutation_epoch

        f.drop_all_references()

        assert callee.users() == [] and variable.users() == []
        assert foreign.users() == [foreign_ret]
        assert call.get_operand(0) is None and c.get_operand(1) is None
        # Values local to the function keep their uses.
        assert a.users() == [call] and call.users() == [c]
        assert f.args[0].users() == [a]
        assert f.mutation_epoch > epoch
