"""The bit-parallel ``align`` against the textbook quadratic Needleman–Wunsch.

The reference below is the per-cell predicate DP the merge pass used before
alignment went bit-parallel, with the pairwise match predicate written out
case by case as it was before match keys.  Every column of the two
alignments must be the same pair of entries — ties included — since the code
generators consume the alignment column by column and a different tie
changes the merged function.
"""

import random

import pytest

from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import (
    AllocaInst, BinaryInst, BranchInst, CallInst, CastInst, CmpInst, GEPInst,
    InvokeInst, LandingPadInst, LoadInst, PhiInst, ReturnInst, SelectInst,
    StoreInst, SwitchInst, UnreachableInst,
)
from repro.merge.alignment import AlignedPair, align
from repro.merge.linearize import LabelEntry, linearize
from repro.merge.matching import entries_match, is_landing_block
from repro.transforms.clone import clone_function
from repro.transforms.reg2mem import demote_function
from repro.workloads.generator import generate_program, simple_spec
from repro.workloads.mibench_like import get_mibench
from repro.workloads.spec_like import get_benchmark


def _types(values):
    return [value.type for value in values]


def _landingpad_type(invoke):
    unwind = invoke.unwind_dest
    if not isinstance(unwind, BasicBlock):
        return None
    index = unwind.first_non_phi_index()
    if index < len(unwind.instructions) and \
            isinstance(unwind.instructions[index], LandingPadInst):
        return unwind.instructions[index].type
    return None


def reference_instructions_match(a, b):
    if type(a) is not type(b) or isinstance(a, (PhiInst, LandingPadInst)) \
            or a.type != b.type:
        return False
    if isinstance(a, BinaryInst):
        return a.opcode == b.opcode and a.lhs.type == b.lhs.type
    if isinstance(a, CmpInst):
        return a.predicate == b.predicate and a.lhs.type == b.lhs.type
    if isinstance(a, CastInst):
        return a.opcode == b.opcode and a.value.type == b.value.type
    if isinstance(a, SelectInst):
        return a.if_true.type == b.if_true.type
    if isinstance(a, AllocaInst):
        return a.allocated_type == b.allocated_type
    if isinstance(a, LoadInst):
        return a.pointer.type == b.pointer.type
    if isinstance(a, StoreInst):
        return a.value.type == b.value.type and a.pointer.type == b.pointer.type
    if isinstance(a, GEPInst):
        return a.pointer.type == b.pointer.type and _types(a.indices) == _types(b.indices)
    if isinstance(a, InvokeInst):
        return _types(a.args) == _types(b.args) and \
            _landingpad_type(a) == _landingpad_type(b)
    if isinstance(a, CallInst):
        return _types(a.args) == _types(b.args)
    if isinstance(a, BranchInst):
        return a.is_conditional == b.is_conditional
    if isinstance(a, SwitchInst):
        return a.condition.type == b.condition.type and len(a.cases()) == len(b.cases())
    if isinstance(a, ReturnInst):
        if a.value is None or b.value is None:
            return a.value is None and b.value is None
        return a.value.type == b.value.type
    return isinstance(a, UnreachableInst)


def reference_match(entry_a, entry_b):
    label_a, label_b = isinstance(entry_a, LabelEntry), isinstance(entry_b, LabelEntry)
    if label_a and label_b:
        return not is_landing_block(entry_a.block) and not is_landing_block(entry_b.block)
    if label_a or label_b:
        return False
    return reference_instructions_match(entry_a.instruction, entry_b.instruction)


def reference_align(sequence_a, sequence_b):
    """Quadratic NW with binary scoring (match 2, gap 0): pairs and matches."""
    rows, cols = len(sequence_a) + 1, len(sequence_b) + 1
    score = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        row, above = score[i], score[i - 1]
        for j in range(1, cols):
            best = above[j]
            if row[j - 1] > best:
                best = row[j - 1]
            if reference_match(sequence_a[i - 1], sequence_b[j - 1]) \
                    and above[j - 1] + 2 > best:
                best = above[j - 1] + 2
            row[j] = best

    pairs, matches = [], 0
    i, j = rows - 1, cols - 1
    while i > 0 or j > 0:
        if i > 0 and j > 0 and reference_match(sequence_a[i - 1], sequence_b[j - 1]) \
                and score[i][j] == score[i - 1][j - 1] + 2:
            pairs.append(AlignedPair(sequence_a[i - 1], sequence_b[j - 1]))
            matches += 1
            i, j = i - 1, j - 1
        elif i > 0 and score[i][j] == score[i - 1][j]:
            pairs.append(AlignedPair(sequence_a[i - 1], None))
            i -= 1
        else:
            pairs.append(AlignedPair(None, sequence_b[j - 1]))
            j -= 1
    pairs.reverse()
    return pairs, matches


def _modules():
    return {
        "generated": generate_program(simple_spec("eq", seed=5, num_families=4,
                                                  family_size=3, function_size=30,
                                                  exception_density=0.2)),
        "mibench-like": get_mibench("sha").build(),
        "spec-like": get_benchmark("447.dealII").build(),
    }


MODULES = _modules()


def _fmsa_sequence(function):
    scratch, _ = clone_function(function, f"{function.name}.eq")
    demote_function(scratch)
    return linearize(scratch, include_phis=True)


def _sequences(module_name, fmsa):
    functions = MODULES[module_name].defined_functions()
    if fmsa:
        return [_fmsa_sequence(function) for function in functions]
    return [linearize(function) for function in functions]


def assert_same_alignment(sequence_a, sequence_b):
    expected_pairs, expected_matches = reference_align(sequence_a, sequence_b)
    result = align(sequence_a, sequence_b)
    assert result.matches == expected_matches
    assert len(result.pairs) == len(expected_pairs)
    for got, want in zip(result.pairs, expected_pairs):
        assert got.first is want.first and got.second is want.second
    assert result.dp_cells == (len(sequence_a) + 1) * (len(sequence_b) + 1)


@pytest.mark.parametrize("fmsa", [False, True], ids=["salssa", "fmsa"])
@pytest.mark.parametrize("module_name", sorted(MODULES))
def test_seeded_pairs_align_identically(module_name, fmsa):
    sequences = _sequences(module_name, fmsa)
    rng = random.Random(13)
    pairs = [(rng.randrange(len(sequences)), rng.randrange(len(sequences)))
             for _ in range(25)]
    for index_a, index_b in pairs:
        assert_same_alignment(sequences[index_a], sequences[index_b])


def test_modules_exercise_invokes_and_landing_pads():
    sequences = _sequences("generated", fmsa=False) + _sequences("spec-like", fmsa=True)
    opcodes = {entry.instruction.opcode for sequence in sequences for entry in sequence
               if not entry.is_label}
    assert {"invoke", "landingpad"} <= opcodes


@pytest.mark.parametrize("fmsa", [False, True], ids=["salssa", "fmsa"])
def test_shuffled_fragments_break_ties_identically(fmsa):
    """Random slices, shuffles and repeats of real entries: many equal-score
    alignments, so the traceback's tie order is what is under test."""
    pool = [entry for sequence in _sequences("spec-like", fmsa) for entry in sequence]
    # Phi entries match nothing, not even themselves.
    pool += [entry for function in MODULES["generated"].defined_functions()
             for entry in linearize(function, include_phis=True)]
    rng = random.Random(29)
    for _ in range(60):
        length_a, length_b = rng.randrange(0, 40), rng.randrange(0, 40)
        first = rng.sample(pool, length_a)
        second = [rng.choice(first + pool[:8]) for _ in range(length_b)]
        assert_same_alignment(first, second)


def test_empty_and_single_entry_edges():
    sequence = _sequences("generated", fmsa=False)[0]
    label, inst = sequence[0], sequence[1]
    for first, second in [([], []), ([], [label]), ([label], []), ([label], [label]),
                          ([inst], [label]), ([inst], [inst]), ([label], sequence),
                          (sequence, [inst]), ([], sequence), (sequence, [])]:
        assert_same_alignment(first, second)


def test_entries_match_agrees_with_reference_predicate():
    sequence = [entry for sequence in _sequences("spec-like", fmsa=True)[:6]
                for entry in sequence]
    rng = random.Random(41)
    sample = rng.sample(sequence, 150)
    for entry_a in sample:
        for entry_b in sample:
            assert entries_match(entry_a, entry_b) == reference_match(entry_a, entry_b)
