"""``Function.unique_name``'s name table against a brute-force rescan.

The table is only a cache: under any interleaving of IR edits, naming calls
and hand-overs between functions, ``unique_name`` must return exactly what a
rescan of the function's live names returns, and advance the counter the
same way.
"""

import gc
import random
import weakref

import pytest

from repro.ir import BasicBlock, Function, FunctionType
from repro.ir.instructions import BinaryInst, UnreachableInst
from repro.ir.types import I32
from repro.ir.values import Constant
from repro.ir.verifier import verify_function
from repro.transforms.clone import clone_function
from repro.workloads.generator import generate_program, simple_spec

PREFIXES = ("v", "bb", "t", "c")


def rescan_unique_name(function, prefix):
    """The naming rule spelled out: the first counter value whose name no
    argument, block or instruction of the function carries."""
    live = {arg.name for arg in function.args}
    live.update(block.name for block in function.blocks)
    live.update(inst.name for inst in function.instructions())
    counter = function._next_value_id
    while f"{prefix}{counter}" in live:
        counter += 1
    return f"{prefix}{counter}", counter + 1


def checked_unique_name(function, prefix):
    expected, next_id = rescan_unique_name(function, prefix)
    assert function.unique_name(prefix) == expected
    assert function._next_value_id == next_id
    return expected


def _random_name(rng, function):
    if rng.random() < 0.1:
        return ""
    # Mostly names the counters are about to reach, so stale and live
    # entries of the table are hit all the time.
    base = function._next_value_id
    return f"{rng.choice(PREFIXES)}{max(0, base + rng.randrange(-4, 12))}"


def _new_instruction(rng, function):
    if rng.random() < 0.2:
        return UnreachableInst()
    return BinaryInst("add", Constant(I32, 1), Constant(I32, 2), _random_name(rng, function))


def _random_edit(rng, function, functions):
    blocks = function.blocks
    instructions = list(function.instructions())
    choice = rng.randrange(10)
    if choice == 0 or not blocks:
        function.add_block(_random_name(rng, function),
                           before=rng.choice(blocks) if blocks and rng.random() < 0.3 else None)
    elif choice == 1:
        block = BasicBlock(_random_name(rng, function))
        for _ in range(rng.randrange(1, 4)):
            block.append(_new_instruction(rng, function))
        function.add_block(block)
    elif choice == 2:
        rng.choice(blocks).append(_new_instruction(rng, function))
    elif choice == 3:
        block = rng.choice(blocks)
        block.insert(rng.randrange(len(block.instructions) + 1),
                     _new_instruction(rng, function))
    elif choice == 4 and instructions:
        inst = rng.choice(instructions)
        inst.parent.remove_instruction(inst)
    elif choice == 5 and instructions:
        rng.choice(instructions).erase_from_parent()
    elif choice == 6 and len(blocks) > 1:
        rng.choice(blocks).erase_from_parent()
    elif choice == 7:
        values = list(function.args) + blocks + instructions
        rng.choice(values).name = _random_name(rng, function)
    elif choice == 8 and instructions:
        # Move an instruction into another function.
        inst = rng.choice(instructions)
        inst.parent.remove_instruction(inst)
        other = rng.choice(functions)
        if other.blocks:
            rng.choice(other.blocks).append(inst)
    else:
        checked_unique_name(function, rng.choice(PREFIXES))


def _functions(seed):
    module = generate_program(simple_spec("names", seed=seed, num_families=2,
                                          function_size=12, exception_density=0.2))
    return module.defined_functions()[:2]


@pytest.mark.parametrize("seed", range(6))
def test_random_interleavings_match_rescan(seed):
    rng = random.Random(seed)
    functions = list(_functions(seed))
    functions.append(Function(FunctionType(I32, (I32, I32)), "fresh", ["v1", "bb0"]))
    for step in range(600):
        function = rng.choice(functions)
        if rng.random() < 0.05:
            clone, _ = clone_function(function, f"{function.name}.c{step}")
            checked_unique_name(clone, rng.choice(PREFIXES))
            functions[functions.index(function)] = clone
            continue
        _random_edit(rng, function, functions)
        checked_unique_name(rng.choice(functions), rng.choice(PREFIXES))


def test_names_from_unique_name_keep_generated_functions_valid():
    function = _functions(3)[0]
    for block in list(function.blocks):
        for inst in list(block.instructions):
            if inst.name and inst.opcode != "phi":
                inst.name = function.unique_name("v")
        block.name = function.unique_name("bb")
    assert verify_function(function, raise_on_error=False) == []


def test_one_holder_at_a_time():
    first, second = _functions(1)
    first.unique_name()
    assert first._name_table is not None
    second.unique_name()
    assert first._name_table is None and second._name_table is not None


def test_holder_is_not_kept_alive():
    function = Function(FunctionType(I32, (I32,)), "doomed")
    function.add_block("entry").append(UnreachableInst())
    function.unique_name()
    assert function._name_table is not None
    ref = weakref.ref(function)
    del function
    gc.collect()
    assert ref() is None
