"""The CI perf-trend regression gate (benchmarks/check_trend.py).

The gate lives next to the benches rather than in the package, so it is
loaded here by file path.  Tests drive ``main()`` exactly as CI does and
assert on its exit status: 0 = pass/advisory, 1 = hard regression.
"""

import importlib.util
import json
import os
import sys

import pytest

_GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "benchmarks", "check_trend.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_trend", _GATE)
    module = importlib.util.module_from_spec(spec)
    # Registered so the module's dataclasses can resolve their postponed
    # (PEP 563) annotations through sys.modules during class creation.
    sys.modules["check_trend"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("check_trend", None)


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return str(path)


def cache_row(fingerprint_ratio=2.531, speedup=1.0):
    """An ``analysis_cache`` row: its ratios are higher-is-better."""
    return {"bench": "analysis_cache", "commit": "abc1234",
            "num_functions": 256, "domtree_ratio": 2.224,
            "fingerprint_ratio": fingerprint_ratio, "hit_rate": 0.5242,
            "speedup": speedup, "digests_match": True, "unix_time": 1}


def incremental_row(rescore_fraction=0.05, num_functions=64,
                    pairs_rescored=3):
    """An ``incremental`` row: its rescore fraction and rescored pairs are
    lower-is-better."""
    return {"bench": "incremental", "commit": "abc1234",
            "num_functions": num_functions,
            "rescore_fraction": rescore_fraction,
            "pairs_rescored": pairs_rescored, "speedup": 5.0,
            "digests_match": True, "unix_time": 1}


class TestGateOutcomes:
    def test_missing_file_is_a_pass(self, gate, tmp_path):
        assert gate.main(["--trend", str(tmp_path / "absent.jsonl")]) == 0

    def test_stable_history_passes(self, gate, tmp_path):
        path = write_rows(tmp_path / "t.jsonl", [cache_row()] * 4)
        assert gate.main(["--trend", path]) == 0

    def test_regression_beyond_tolerance_fails(self, gate, tmp_path):
        rows = [cache_row()] * 3 + [cache_row(fingerprint_ratio=1.5)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 1

    def test_lower_is_better_direction(self, gate, tmp_path):
        # rescore_fraction rising is a regression even though
        # pairs_rescored held.
        rows = [incremental_row()] * 3 + [incremental_row(0.5)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 1

    def test_drift_within_tolerance_passes(self, gate, tmp_path):
        # -3% < 10% tolerance
        rows = [cache_row()] * 3 + [cache_row(fingerprint_ratio=2.455)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 0

    def test_short_history_is_advisory_only(self, gate, tmp_path):
        # One prior row (< MIN_HISTORY): even a huge drop must not fail CI.
        rows = [cache_row(), cache_row(fingerprint_ratio=0.1)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 0

    def test_wall_clock_speedup_never_fails(self, gate, tmp_path):
        rows = [cache_row()] * 3 + [cache_row(speedup=0.1)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 0

    def test_broken_digest_fails_without_history(self, gate, tmp_path):
        row = {"bench": "incremental", "commit": "abc1234",
               "num_functions": 64, "digests_match": False,
               "unix_time": 1}
        path = write_rows(tmp_path / "t.jsonl", [row])
        assert gate.main(["--trend", path]) == 1


class TestSeriesKeying:
    def test_different_contexts_never_compare(self, gate, tmp_path):
        # incremental is keyed by num_functions and gates pairs_rescored: a
        # row at a new module size starts its own series (too short to
        # fail), while the same row in the old context is judged and fails.
        def row(num_functions, pairs_rescored):
            return incremental_row(num_functions=num_functions,
                                   pairs_rescored=pairs_rescored)
        history = [row(64, 4)] * 3
        new_context = write_rows(tmp_path / "new.jsonl",
                                 history + [row(128, 40)])
        assert gate.main(["--trend", new_context]) == 0
        same_context = write_rows(tmp_path / "same.jsonl",
                                  history + [row(64, 40)])
        assert gate.main(["--trend", same_context]) == 1

    def test_unknown_bench_is_skipped_not_fatal(self, gate, tmp_path):
        rows = [{"bench": "not_a_bench", "metric": 1.0, "unix_time": 1}]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 0

    def test_malformed_lines_are_skipped(self, gate, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps(cache_row()) + "\n")
            handle.write(json.dumps({"no_bench": True}) + "\n")
        assert gate.main(["--trend", str(path)]) == 0


class TestNearZeroBaselines:
    def test_abs_slack_shields_zero_counters(self, gate, tmp_path):
        # pairs_rescored has median 0; pure relative tolerance would flag
        # ANY nonzero value.  The absolute slack admits small counts...
        def row(pairs_rescored):
            return incremental_row(num_functions=96,
                                   pairs_rescored=pairs_rescored)
        rows = [row(0)] * 3 + [row(2)]
        assert gate.main(
            ["--trend", write_rows(tmp_path / "a.jsonl", rows)]) == 0
        # ...but a real reuse collapse still fails.
        rows = [row(0)] * 3 + [row(40)]
        assert gate.main(
            ["--trend", write_rows(tmp_path / "b.jsonl", rows)]) == 1


class TestRealSeededHistory:
    def test_committed_trend_file_passes_the_gate(self, gate):
        """The trend.jsonl seeded in-repo must never fail its own gate."""
        if not os.path.exists(gate.DEFAULT_TREND):
            pytest.skip("no seeded trend.jsonl")
        assert gate.main(["--trend", gate.DEFAULT_TREND]) == 0
