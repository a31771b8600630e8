"""Tests for canonical serialization and function content digests.

The incremental pipeline keys delta detection and its attempt cache on
:meth:`repro.ir.function.Function.content_digest`; these tests pin down the
properties that make that safe: name-independence, mutation sensitivity,
epoch-keyed memoization and — run in a fresh interpreter — stability across
processes.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.harness.experiments import search_workload
from repro.ir import canonical_function_text, parse_module, print_module
from repro.transforms.clone import clone_function

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _sample_module():
    return search_workload(24, seed=11)


class TestCanonicalText:
    def test_name_independent(self):
        module = _sample_module()
        function = next(f for f in module.defined_functions()
                        if f.num_instructions() >= 6)
        clone, _ = clone_function(function, f"{function.name}__copy", module)
        assert canonical_function_text(function) == canonical_function_text(clone)
        assert function.content_digest() == clone.content_digest()

    def test_survives_reprinting_and_renaming(self):
        module = _sample_module()
        # Round-trip the whole module through the textual format: every local
        # value keeps (or gains) printer-assigned names, which must not move
        # the canonical rendering.
        before = {f.name: f.content_digest() for f in module.defined_functions()}
        reparsed = parse_module(print_module(module))
        after = {f.name: f.content_digest() for f in reparsed.defined_functions()}
        assert before == after

    def test_declarations_render_by_signature(self):
        module = _sample_module()
        declarations = [f for f in module.functions if f.is_declaration()]
        assert declarations
        texts = {canonical_function_text(f) for f in declarations}
        # Same-signature declarations collapse; the digest still exists.
        assert all(text.startswith("declare ") for text in texts)
        assert all(f.content_digest() for f in declarations)


class TestDigestInvalidation:
    def test_mutation_changes_digest(self):
        module = _sample_module()
        function = next(f for f in module.defined_functions()
                        if f.num_instructions() >= 6)
        stale = function.content_digest()
        block = function.blocks[-1]
        from repro.ir import Constant, I32, IRBuilder
        builder = IRBuilder(block)
        builder.position_before(block.terminator)
        value = next(a for a in function.args if a.type == I32)
        builder.binary("xor", value, Constant(I32, 5))
        assert function.content_digest() != stale

    def test_digest_is_memoized_per_epoch(self):
        module = _sample_module()
        function = next(iter(module.defined_functions()))
        first = function.content_digest()
        assert function.content_digest() is first  # cached string, same object
        function.notify_mutated()
        # Content did not change, only the epoch: recompute yields the same
        # digest value (a conservative cache refresh, not a drift).
        assert function.content_digest() == first


class TestCrossProcessStability:
    def test_digests_stable_across_two_processes(self):
        module = _sample_module()
        expected = {f.name: f.content_digest() for f in module.defined_functions()}
        script = (
            "from repro.harness.experiments import search_workload\n"
            "module = search_workload(24, seed=11)\n"
            "for f in module.defined_functions():\n"
            "    print(f.name, f.content_digest())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        # Randomized string hashing must not leak into digests.
        env["PYTHONHASHSEED"] = "random"
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout
        observed = dict(line.split() for line in output.splitlines())
        assert observed == expected
