"""Property test: index maintenance equals a fresh build.

Any interleaving of ``add`` / ``remove`` / ``update`` must leave the index
answering queries exactly like a fresh index built over the final
population, and like the full-scan reference.  This is the contract the
incremental pipeline leans on: a ``PipelineState``'s index is only ever
*maintained*, never rebuilt, across an unbounded delta stream.
"""

import random

import pytest

from repro.harness.experiments import search_workload
from repro.ir.values import Constant
from repro.search import make_index
from repro.workloads import constant_sites

from .reference import CandidateRanking


def _population(seed=3):
    """A 72-function module to maintain an index over."""
    module = search_workload(72, seed=seed)
    return module, list(module.defined_functions())


def _mutate(function, rng):
    """Nudge one constant in place (a real content change, same identity)."""
    sites = constant_sites(function)
    if not sites:
        return False
    instruction, operand_index = rng.choice(sites)
    constant = instruction.operands[operand_index]
    instruction.set_operand(
        operand_index, Constant(constant.type, constant.value + 1))
    return True


def _answers(index, queries, top_k=3):
    return {query.name: [(c.function.name, c.distance)
                         for c in index.candidates_for(query, top_k)]
            for query in queries}


# Case ids name the index as well as the seed, as they did when every index
# kind ran this test; the exhaustive walk is the one left.
@pytest.mark.parametrize("seed", [1, 2, 3],
                         ids=lambda seed: f"{seed}-exhaustive")
def test_random_interleaving_equals_fresh_index(seed):
    module, functions = _population()
    rng = random.Random(seed)
    live = make_index(module, min_size=3)

    population = list(functions)
    removed = []
    for _ in range(40):
        op = rng.choice(("add", "remove", "update", "update"))
        if op == "remove" and len(population) > 8:
            victim = population.pop(rng.randrange(len(population)))
            live.remove(victim)
            removed.append(victim)
        elif op == "add" and removed:
            revenant = removed.pop(rng.randrange(len(removed)))
            live.add(revenant)
            population.append(revenant)
        else:
            target = rng.choice(population)
            _mutate(target, rng)
            live.update(target)

    fresh = make_index(_Population(population), min_size=3)
    reference = CandidateRanking(_Population(population), min_size=3)
    queries = sorted(population, key=lambda f: f.name)
    assert _answers(live, queries) == _answers(fresh, queries) \
        == _answers(reference, queries)


class _Population:
    """Quacks like a module for ``make_index`` over an explicit member list."""

    def __init__(self, functions):
        self._functions = functions

    def defined_functions(self):
        return list(self._functions)
