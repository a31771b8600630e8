"""Tests for ``PipelineState``: config keys and named-text round trips."""

import random

import pytest

from repro.harness import run_pipeline_incremental
from repro.harness.experiments import merge_report_digest, search_workload
from repro.incremental import IncrementalConfig
from repro.ir.parser import parse_named_function
from repro.ir.printer import print_function
from repro.workloads import random_delta


def _delta_stream(module, steps, seed=11):
    """Bootstrap + ``steps`` random deltas; returns the last run."""
    rng = random.Random(seed)
    run = run_pipeline_incremental(module, benchmark="state")
    for _ in range(steps):
        random_delta(module, rng, edits=2)
        run = run_pipeline_incremental(module, run.state)
    return run


class TestConfigKey:
    def test_outcome_relevant_knobs_change_the_key(self):
        base = IncrementalConfig()
        assert base.key() == IncrementalConfig().key()
        assert base.key() != IncrementalConfig(technique="fmsa").key()
        assert base.key() != IncrementalConfig(threshold=5).key()
        assert base.key() != IncrementalConfig(target="arm_thumb").key()
        assert base.key() != IncrementalConfig(phi_coalescing=False).key()
        assert base.key() != IncrementalConfig(min_function_size=5).key()

    def test_benchmark_name_is_not_part_of_the_key(self):
        # The name only labels runs: a state serves any benchmark name.
        module = search_workload(10)
        run = run_pipeline_incremental(module, benchmark="a")
        renamed = run_pipeline_incremental(module, run.state, benchmark="b")
        assert renamed.stats.pairs_reused == run.report.attempts
        assert merge_report_digest(renamed.report) == \
            merge_report_digest(run.report)

    def test_state_rejects_a_mismatched_config(self):
        module = search_workload(10)
        run = run_pipeline_incremental(module, benchmark="state")
        with pytest.raises(ValueError):
            run_pipeline_incremental(module, run.state, technique="fmsa")


class TestNamedTextRoundTrip:
    def test_every_pristine_function_round_trips_by_name(self):
        module = search_workload(14)
        run = _delta_stream(module, 2)
        for name, function in run.state.functions.items():
            text = print_function(function)
            twin = parse_named_function(text)
            assert twin.name == name
            assert twin.content_digest() == function.content_digest()
            assert print_function(twin) == text
