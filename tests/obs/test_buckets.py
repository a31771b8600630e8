"""Histogram-bucket tuning from trend quantiles, and its merge safety."""

import json

import pytest

from repro.harness.experiments import merge_report_digest, search_workload
from repro.harness.pipeline import run_pipeline
from repro.obs import (
    MetricsRegistry,
    cached_bucket_overrides,
    collect_timer_quantiles,
    derive_buckets,
    tuned_bucket_overrides,
)
from repro.obs import buckets
from repro.obs.buckets import MIN_SAMPLES, _round_sig


class TestCollect:
    def test_gathers_per_family_values(self):
        rows = [
            {"bench": "obs_overhead",
             "timer_quantiles": {"repro_phase_seconds":
                                 {"p50": 0.01, "p90": 0.05, "p99": 0.2}}},
            {"bench": "obs_overhead",
             "timer_quantiles": {"repro_phase_seconds": [0.02, 0.06]}},
        ]
        collected = collect_timer_quantiles(rows)
        assert collected == {"repro_phase_seconds":
                             [0.01, 0.05, 0.2, 0.02, 0.06]}

    def test_ignores_junk(self):
        rows = [
            {"timer_quantiles": {"f": {"p50": 0.0, "p90": -1, "p99": "x"}}},
            {"timer_quantiles": {"f": {"p50": float("inf"), "p90": True}}},
            {"timer_quantiles": "not a mapping"},
            {"no_quantiles": 1},
        ]
        assert collect_timer_quantiles(rows) == {}


class TestDerive:
    def test_log_spaced_ladder_covers_span(self):
        bounds = derive_buckets([0.01, 0.05, 0.2])
        assert bounds is not None
        assert list(bounds) == sorted(set(bounds))
        assert bounds[0] <= 0.01 / 4.0
        assert bounds[-1] >= 0.2 * 4.0
        # Every edge is 2-significant-figure clean.
        assert all(_round_sig(bound) == bound for bound in bounds)

    def test_too_few_samples_keeps_defaults(self):
        assert derive_buckets([0.01] * (MIN_SAMPLES - 1)) is None
        assert derive_buckets([]) is None

    def test_degenerate_range_still_produces_ladder(self):
        bounds = derive_buckets([0.01, 0.01, 0.01])
        assert bounds is not None and len(bounds) >= 2

    def test_nonpositive_and_nonfinite_filtered(self):
        assert derive_buckets([0.0, -1.0, float("nan")]) is None


class TestTunedOverrides:
    def _trend(self, tmp_path, rows):
        path = tmp_path / "trend.jsonl"
        path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        return str(path)

    def test_overrides_from_history(self, tmp_path):
        rows = [{"bench": "obs_overhead",
                 "timer_quantiles": {"repro_phase_seconds":
                                     {"p50": 0.01, "p90": 0.04, "p99": 0.1}}}]
        overrides = tuned_bucket_overrides(self._trend(tmp_path, rows))
        assert set(overrides) == {"repro_phase_seconds"}
        registry = MetricsRegistry(bucket_overrides=overrides)
        timer = registry.timer("repro_phase_seconds", phase="x")
        assert timer.bounds == overrides["repro_phase_seconds"]

    def test_missing_file_yields_empty(self, tmp_path):
        assert tuned_bucket_overrides(str(tmp_path / "nope.jsonl")) == {}

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        path.write_text("not json\n[1,2]\n" + json.dumps(
            {"timer_quantiles": {"f": {"p50": 1, "p90": 2, "p99": 3}}}) + "\n")
        overrides = tuned_bucket_overrides(str(path))
        assert set(overrides) == {"f"}

    def test_sparse_families_omitted(self, tmp_path):
        rows = [{"timer_quantiles": {"thin": {"p50": 0.01}}}]
        assert tuned_bucket_overrides(self._trend(tmp_path, rows)) == {}

    def test_default_path_never_raises(self):
        # Whatever benchmarks/trend.jsonl holds (or doesn't), resolution of
        # the default path must degrade to a plain dict.
        assert isinstance(tuned_bucket_overrides(), dict)


class TestMergeSafety:
    OVERRIDES = {"repro_phase_seconds": (0.005, 0.05, 0.5)}

    def test_mismatched_bounds_refuse_registry_merge(self):
        tuned = MetricsRegistry(bucket_overrides=self.OVERRIDES)
        tuned.timer("repro_phase_seconds", phase="x").observe(0.01)
        default = MetricsRegistry()
        default.timer("repro_phase_seconds", phase="x").observe(0.01)
        with pytest.raises(ValueError):
            tuned.merge(default)

    def test_mismatched_bounds_refuse_snapshot_fold(self):
        default = MetricsRegistry()
        default.timer("repro_phase_seconds", phase="x").observe(0.01)
        snapshot = default.snapshot()
        tuned = MetricsRegistry(bucket_overrides=self.OVERRIDES)
        tuned.timer("repro_phase_seconds", phase="x").observe(0.01)
        with pytest.raises(ValueError, match="bounds"):
            tuned.merge_snapshot(snapshot)

    def test_same_overrides_merge_cleanly(self):
        ours = MetricsRegistry(bucket_overrides=self.OVERRIDES)
        ours.timer("repro_phase_seconds", phase="x").observe(0.01)
        theirs = MetricsRegistry(bucket_overrides=self.OVERRIDES)
        theirs.timer("repro_phase_seconds", phase="x").observe(0.3)
        ours.merge_snapshot(theirs.snapshot())
        assert ours.timer("repro_phase_seconds", phase="x").count == 2


def write_trend(path, families=("repro_phase_seconds",), rows=2):
    lines = [json.dumps({
        "bench": "obs_overhead",
        "timer_quantiles": {family: {"p50": 0.01, "p90": 0.05, "p99": 0.2}
                            for family in families}})] * rows
    path.write_text("\n".join(lines) + "\n")


class TestCachedOverrides:
    def test_missing_file_yields_empty_and_never_raises(self, tmp_path):
        assert cached_bucket_overrides(str(tmp_path / "absent.jsonl")) == {}

    def test_memoized_on_stat_signature(self, tmp_path):
        trend = tmp_path / "trend.jsonl"
        write_trend(trend)
        first = cached_bucket_overrides(str(trend))
        assert "repro_phase_seconds" in first
        assert cached_bucket_overrides(str(trend)) == first
        # An append invalidates the cache (size changes).
        write_trend(trend, families=("repro_phase_seconds",
                                     "repro_merge_alignment_seconds"))
        assert "repro_merge_alignment_seconds" in \
            cached_bucket_overrides(str(trend))

    def test_mutating_the_returned_dict_is_safe(self, tmp_path):
        trend = tmp_path / "trend.jsonl"
        write_trend(trend)
        cached_bucket_overrides(str(trend)).clear()
        assert cached_bucket_overrides(str(trend)) != {}


class TestPipelineTunedDefault:
    """`run_pipeline(metrics=True)` applies tuned ladders — but only when
    trend history exists, and only to registries it creates."""

    def run(self, **kwargs):
        module = search_workload(32, seed=3)
        return run_pipeline(module, "tuned-test", technique="salssa",
                            threshold=1, **kwargs)

    def test_default_off_without_trend_history(self, tmp_path, monkeypatch):
        monkeypatch.setattr(buckets, "_default_trend_path",
                            lambda: str(tmp_path / "absent.jsonl"))
        result = self.run(metrics=True)
        assert result.metrics.bucket_overrides == {}

    def test_default_on_with_trend_history(self, tmp_path, monkeypatch):
        trend = tmp_path / "trend.jsonl"
        write_trend(trend)
        monkeypatch.setattr(buckets, "_default_trend_path",
                            lambda: str(trend))
        result = self.run(metrics=True)
        assert "repro_phase_seconds" in result.metrics.bucket_overrides
        # The tuned family actually carries the tuned ladder.
        family = next(f for f in result.metrics.families()
                      if f.name == "repro_phase_seconds")
        [(_, child)] = list(family.samples())[:1]
        assert child.bounds == \
            result.metrics.bucket_overrides["repro_phase_seconds"]

    def test_caller_registry_never_reshaped(self, tmp_path, monkeypatch):
        trend = tmp_path / "trend.jsonl"
        write_trend(trend)
        monkeypatch.setattr(buckets, "_default_trend_path",
                            lambda: str(trend))
        registry = MetricsRegistry()
        result = self.run(metrics=registry)
        assert result.metrics is registry
        assert registry.bucket_overrides == {}

    def test_digest_identical_with_tuning_on_and_off(self, tmp_path,
                                                     monkeypatch):
        trend = tmp_path / "trend.jsonl"
        write_trend(trend)
        monkeypatch.setattr(buckets, "_default_trend_path",
                            lambda: str(trend))
        tuned = self.run(metrics=True)
        # A caller's registry keeps its own (default) ladders.
        plain = self.run(metrics=MetricsRegistry())
        assert plain.metrics.bucket_overrides == {}
        assert merge_report_digest(tuned.report) == \
            merge_report_digest(plain.report)
