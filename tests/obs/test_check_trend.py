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


def search_row(recall=0.97, scan_fraction=0.18, quality=0.98, speedup=4.0):
    return {"bench": "candidate_search", "commit": "abc1234",
            "num_functions": 256, "strategy": "minhash_lsh",
            "recall": recall, "scan_fraction": scan_fraction,
            "quality": quality, "speedup": speedup, "unix_time": 1}


class TestGateOutcomes:
    def test_missing_file_is_a_pass(self, gate, tmp_path):
        assert gate.main(["--trend", str(tmp_path / "absent.jsonl")]) == 0

    def test_stable_history_passes(self, gate, tmp_path):
        path = write_rows(tmp_path / "t.jsonl", [search_row()] * 4)
        assert gate.main(["--trend", path]) == 0

    def test_regression_beyond_tolerance_fails(self, gate, tmp_path):
        rows = [search_row()] * 3 + [search_row(recall=0.5)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 1

    def test_lower_is_better_direction(self, gate, tmp_path):
        # scan_fraction rising is a regression even though recall held.
        rows = [search_row()] * 3 + [search_row(scan_fraction=0.5)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 1

    def test_drift_within_tolerance_passes(self, gate, tmp_path):
        rows = [search_row()] * 3 + [search_row(recall=0.94)]  # -3% < 5% tol
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 0

    def test_short_history_is_advisory_only(self, gate, tmp_path):
        # One prior row (< MIN_HISTORY): even a huge drop must not fail CI.
        rows = [search_row(), search_row(recall=0.1)]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 0

    def test_wall_clock_speedup_never_fails(self, gate, tmp_path):
        rows = [search_row()] * 3 + [search_row(speedup=0.1)]
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
        # service_load is keyed by host_cpus and gates `errors` at zero: a
        # row from a new host class starts its own series (too short to
        # fail), while the same row in the old context is judged and fails.
        def load_row(host_cpus, errors):
            return {"bench": "service_load", "commit": "abc1234",
                    "sessions": 3, "jobs": 3, "num_functions": 24,
                    "host_cpus": host_cpus, "errors": errors,
                    "jobs_per_second": 12.0, "unix_time": 1}
        history = [load_row(1, 0)] * 3
        new_context = write_rows(tmp_path / "new.jsonl",
                                 history + [load_row(2, 1)])
        assert gate.main(["--trend", new_context]) == 0
        same_context = write_rows(tmp_path / "same.jsonl",
                                  history + [load_row(1, 1)])
        assert gate.main(["--trend", same_context]) == 1

    def test_unknown_bench_is_skipped_not_fatal(self, gate, tmp_path):
        rows = [{"bench": "not_a_bench", "metric": 1.0, "unix_time": 1}]
        path = write_rows(tmp_path / "t.jsonl", rows)
        assert gate.main(["--trend", path]) == 0

    def test_malformed_lines_are_skipped(self, gate, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps(search_row()) + "\n")
            handle.write(json.dumps({"no_bench": True}) + "\n")
        assert gate.main(["--trend", str(path)]) == 0


class TestNearZeroBaselines:
    def test_abs_slack_shields_zero_counters(self, gate, tmp_path):
        # warm_recomputed has median 0; pure relative tolerance would flag
        # ANY nonzero value.  The absolute slack admits small counts...
        def persist_row(warm_recomputed):
            return {"bench": "persist_warm_start", "commit": "abc1234",
                    "num_functions": 96, "signature_reduction": 1.0,
                    "fingerprint_reduction": 1.0, "warm_hit_rate": 1.0,
                    "warm_recomputed": warm_recomputed, "speedup": 1.3,
                    "digests_match": True, "unix_time": 1}
        rows = [persist_row(0)] * 3 + [persist_row(2)]
        assert gate.main(
            ["--trend", write_rows(tmp_path / "a.jsonl", rows)]) == 0
        # ...but a real warm-path collapse still fails.
        rows = [persist_row(0)] * 3 + [persist_row(40)]
        assert gate.main(
            ["--trend", write_rows(tmp_path / "b.jsonl", rows)]) == 1


class TestRealSeededHistory:
    def test_committed_trend_file_passes_the_gate(self, gate):
        """The trend.jsonl seeded in-repo must never fail its own gate."""
        if not os.path.exists(gate.DEFAULT_TREND):
            pytest.skip("no seeded trend.jsonl")
        assert gate.main(["--trend", gate.DEFAULT_TREND]) == 0
