"""The exhaustive index prunes by size, yet answers exactly like a full scan.

The opcode-bucket counts of a fingerprint sum to its size, so the Manhattan
distance between two fingerprints is never less than their size difference.
``CandidateIndex`` walks its functions outward from the query's size and
stops once the gap is strictly greater than the k-th best distance found.
These tests check it against the full-scan reference in ``reference.py``: on
real modules, on synthetic fingerprints that tie exactly at the stopping gap,
under incremental maintenance, and through the whole merge pass.
"""

import random

import pytest

from repro.analysis.fingerprint import Fingerprint
from repro.harness.experiments import merge_report_digest, search_workload
from repro.ir.function import Function
from repro.ir.printer import print_module
from repro.ir.types import FunctionType, I32
from repro.merge import pass_manager
from repro.merge.pass_manager import FunctionMergingPass, MergePassOptions
from repro.search import CandidateIndex, make_index
from repro.workloads.generator import generate_program, simple_spec
from repro.workloads.mibench_like import get_mibench
from repro.workloads.spec_like import get_benchmark

from .reference import CandidateRanking

BUCKETS = len(Fingerprint.of(Function(FunctionType(I32), "empty")).counts)

MODULES = {
    "generated": lambda: generate_program(simple_spec(
        "exact", seed=5, num_families=8, family_size=3, function_size=30,
        standalone_functions=6)),
    "mibench-like": lambda: get_mibench("sha").build(),
    "spec-like": lambda: get_benchmark("447.dealII").build(),
    "search-96": lambda: search_workload(96, seed=7),
}


def answers(ranked):
    return [(c.function, c.distance, c.similarity) for c in ranked]


def fingerprint(*counts):
    """A synthetic fingerprint whose counts sum to its size, as real ones do."""
    padded = tuple(counts) + (0,) * (BUCKETS - len(counts))
    return Fingerprint(padded, sum(padded))


class Population:
    """Quacks like a module for ``make_index`` over bodiless functions."""

    def __init__(self, functions):
        self.functions = list(functions)

    def defined_functions(self):
        return list(self.functions)


def synthetic_index(named_fingerprints):
    """An index and its reference over ``(name, fingerprint)`` pairs, indexed
    in the order given."""
    functions = [Function(FunctionType(I32), name)
                 for name, _ in named_fingerprints]
    fingerprints = {function: fp for function, (_, fp)
                    in zip(functions, named_fingerprints)}
    index = make_index(Population(functions), min_size=0,
                       precomputed=dict(fingerprints))
    reference = CandidateRanking(None, fingerprints=fingerprints)
    return index, reference, {f.name: f for f in functions}


def assert_matches_reference(index, reference, rng, thresholds, excludes=3):
    functions = list(reference.fingerprints)
    for query in functions:
        exclude_sets = [set()] + [
            set(rng.sample(functions, rng.randint(1, max(1, len(functions) // 4))))
            for _ in range(excludes)]
        for exclude in exclude_sets:
            everything = reference.candidates_for(query, len(functions) + 3,
                                                  exclude)
            for threshold in thresholds:
                assert answers(index.candidates_for(query, threshold, exclude)) \
                    == answers(everything[:threshold]), (query.name, threshold)


# ------------------------------------------------------------ real modules

@pytest.fixture(scope="module", params=sorted(MODULES))
def real_module(request):
    return MODULES[request.param]()


def test_real_fingerprints_sum_to_their_size(real_module):
    for function in real_module.defined_functions():
        fp = Fingerprint.of(function)
        assert sum(fp.counts) == fp.size == function.num_instructions()


# The walk takes no similarity floor.  These cases are the 0.0 (no floor)
# cases of the earlier floor-parametrized version and keep their ids.
@pytest.mark.parametrize("real_module", sorted(MODULES), indirect=True,
                         ids=lambda name: f"{name}-0.0")
def test_real_modules_match_full_scan(real_module):
    index = make_index(real_module, min_size=3)
    reference = CandidateRanking(real_module, min_size=3)
    assert index.functions_by_size() == reference.functions_by_size()
    population = len(reference.fingerprints)
    assert_matches_reference(index, reference, random.Random(11),
                             (1, 2, 5, population + 1), excludes=1)


def test_pruning_scores_a_small_share():
    module = search_workload(96, seed=7)
    index = make_index(module, min_size=3)
    for function in index.functions_by_size():
        index.candidates_for(function, 1)
    assert 0.0 < index.stats.scan_fraction < 0.25


# --------------------------------------------------- synthetic fingerprints

def test_tie_at_the_stopping_gap_won_on_size():
    # "far" is 4 larger than the query and 4 away: its gap equals the best
    # distance so far, and it ties "near" on distance, then wins on size.
    index, reference, names = synthetic_index([
        ("query", fingerprint(10)),
        ("near", fingerprint(8, 2)),
        ("far", fingerprint(10, 4)),
    ])
    ranked = index.candidates_for(names["query"], 1)
    assert [c.function.name for c in ranked] == ["far"]
    assert answers(ranked) == answers(reference.candidates_for(names["query"], 1))


def test_tie_at_the_stopping_gap_won_on_name():
    # Two candidates of one size at the stopping gap, tied on distance: the
    # one indexed second sorts first by name.
    index, reference, names = synthetic_index([
        ("query", fingerprint(10)),
        ("z", fingerprint(10, 4)),
        ("a", fingerprint(10, 4)),
    ])
    ranked = index.candidates_for(names["query"], 1)
    assert [c.function.name for c in ranked] == ["a"]
    assert answers(ranked) == answers(reference.candidates_for(names["query"], 1))


def random_fingerprint(rng, size):
    counts = [0] * BUCKETS
    for _ in range(size):
        counts[rng.randrange(4)] += 1
    return fingerprint(*counts)


# As above, the 0.0 (no floor) cases of the floor-parametrized version, with
# their ids and random seeds.
@pytest.mark.parametrize("sizes", [(20, 20), (10, 14), (5, 40)],
                         ids=["0.0-one-size", "0.0-few-sizes", "0.0-spread"])
def test_synthetic_populations_match_full_scan(sizes):
    rng = random.Random(f"{sizes} 0.0")
    names = [f"f{i:03d}" for i in range(60)]
    rng.shuffle(names)  # indexing order differs from name order
    index, reference, _ = synthetic_index(
        [(name, random_fingerprint(rng, rng.randint(*sizes)))
         for name in names])
    assert_matches_reference(index, reference, rng, (1, 2, 5, 70))


def test_maintenance_matches_a_fresh_reference():
    rng = random.Random(5)
    named = [(f"f{i:02d}", random_fingerprint(rng, rng.randint(5, 25)))
             for i in range(40)]
    index, _, by_name = synthetic_index(named)
    live = dict(zip(by_name.values(), (fp for _, fp in named)))
    removed = []
    for _ in range(120):
        operation = rng.choice(("add", "remove", "update", "update"))
        if operation == "remove" and len(live) > 5:
            victim = rng.choice(sorted(live, key=lambda f: f.name))
            index.remove(victim)
            del live[victim]
            removed.append(victim)
        elif operation == "add" and removed:
            revenant = removed.pop(rng.randrange(len(removed)))
            live[revenant] = random_fingerprint(rng, rng.randint(5, 25))
            index.precomputed[revenant] = live[revenant]
            index.add(revenant)
        else:
            # A rewrite that changes the size: the old entry must leave
            # the size order from its old position.
            target = rng.choice(sorted(live, key=lambda f: f.name))
            live[target] = random_fingerprint(rng, rng.randint(5, 25))
            index.precomputed[target] = live[target]
            index.update(target)
    assert index.fingerprints == live
    reference = CandidateRanking(None, fingerprints=live)
    assert_matches_reference(index, reference, rng, (1, 3, 50))


# ------------------------------------------------------------ whole pass

class FullScanIndex(CandidateIndex):
    """The index with the size bound left out: every query ranks the whole
    population through the reference."""

    def candidates_for(self, function, threshold=1, exclude=None):
        exclude = exclude or set()
        ranked = CandidateRanking(None, fingerprints=self.fingerprints) \
            .candidates_for(function, threshold, exclude)
        if function in self.fingerprints and threshold > 0:
            scanned = sum(1 for other in self.fingerprints
                          if other is not function and other not in exclude)
            self.stats.record_query(
                scanned=scanned, returned=len(ranked),
                population=len(self.fingerprints) - 1)
        return ranked


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_whole_pass_matches_a_full_scan(monkeypatch, technique):
    results = []
    for full_scan in (False, True):
        module = search_workload(64, seed=7)
        with monkeypatch.context() as patcher:
            if full_scan:
                # The hook the bench's tracer wraps: the pass builds its
                # index through the name it imported.
                patcher.setattr(pass_manager, "make_index", FullScanIndex)
            report = FunctionMergingPass(MergePassOptions(
                technique=technique, exploration_threshold=2)).run(module)
        results.append((merge_report_digest(report), print_module(module),
                        report.search_stats.candidates_scanned))
    (pruned, pruned_text, pruned_scanned), (full, full_text, full_scanned) = results
    assert pruned == full
    assert pruned_text == full_text
    assert pruned[6] > 0  # something merged
    assert pruned_scanned < full_scanned
