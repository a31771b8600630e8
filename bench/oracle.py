"""Output checks for the benchmark: the merged program must behave like the
original under the IR interpreter, and must verify.

Digest parity only shows that two runs agree with each other.  The check
here compares behaviour: every function that was defined before the pass is
run on seeded integer arguments before and after it (a merged function is
reached through the thunk left in its place), and the ``observable()``
results must be equal.  It runs outside every timed region.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.ir import run_function, verify_module
from repro.ir.interpreter import InterpreterError

#: Argument tuples tried per function.
CALLS_PER_FUNCTION = 2
#: Generated functions terminate well inside this; the merged thunks add a
#: handful of steps per call.
MAX_STEPS = 500_000

Arguments = Dict[str, List[Tuple[int, ...]]]


def call_arguments(module, seed: int) -> Arguments:
    """Seeded integer arguments for every defined function of ``module``.

    All generated functions take ``i32`` parameters; small non-negative
    values keep loop trip counts short.
    """
    rng = random.Random(seed)
    return {function.name: [tuple(rng.randint(0, 9) for _ in function.args)
                            for _ in range(CALLS_PER_FUNCTION)]
            for function in module.defined_functions()}


def observe(module, arguments: Arguments) -> Dict[str, list]:
    """Run each named function on its arguments; collect what is observable."""
    observed = {}
    for name, calls in arguments.items():
        results = []
        for args in calls:
            try:
                result = run_function(module, name, args, max_steps=MAX_STEPS)
                results.append(result.observable())
            except InterpreterError as error:
                results.append(("interpreter_error", type(error).__name__))
        observed[name] = results
    return observed


def output_problems(module, arguments: Arguments,
                    expected: Dict[str, list]) -> List[str]:
    """Why the merged ``module`` is wrong, or an empty list when it is right."""
    problems = [f"verifier: {error}"
                for error in verify_module(module, raise_on_error=False)]
    observed = observe(module, arguments)
    for name, before in expected.items():
        if observed.get(name) != before:
            problems.append(f"@{name} behaves differently after merging: "
                            f"{before!r} became {observed.get(name)!r}")
    return problems
