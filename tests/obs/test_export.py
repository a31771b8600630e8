"""Exporters: Prometheus text exposition and JSON snapshot round trips."""

import json

import pytest

from repro.obs import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    merge_snapshot_into,
    to_prometheus_text,
)


def make_registry():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total",
                     help="Requests served.", op="load").inc(3)
    registry.counter("repro_requests_total", op="store").inc(1)
    registry.gauge("repro_ratio", help="A ratio.", merge_mode="max").set(0.5)
    registry.histogram("repro_sizes", help="Sizes.",
                       buckets=(1.0, 10.0)).observe(5)
    return registry


class TestPrometheusText:
    def test_golden_exposition(self):
        text = to_prometheus_text(make_registry())
        assert text == (
            "# HELP repro_ratio A ratio.\n"
            "# TYPE repro_ratio gauge\n"
            "repro_ratio 0.5\n"
            "# HELP repro_requests_total Requests served.\n"
            "# TYPE repro_requests_total counter\n"
            'repro_requests_total{op="load"} 3\n'
            'repro_requests_total{op="store"} 1\n'
            "# HELP repro_sizes Sizes.\n"
            "# TYPE repro_sizes histogram\n"
            'repro_sizes_bucket{le="1"} 0\n'
            'repro_sizes_bucket{le="10"} 1\n'
            'repro_sizes_bucket{le="+Inf"} 1\n'
            "repro_sizes_sum 5\n"
            "repro_sizes_count 1\n")

    def test_timer_exports_as_histogram(self):
        registry = MetricsRegistry()
        registry.timer("repro_io_seconds", op="load").observe(0.002)
        text = registry.to_prometheus()
        assert "# TYPE repro_io_seconds histogram" in text
        assert 'repro_io_seconds_bucket{op="load",le="0.0025"} 1' in text
        assert 'repro_io_seconds_count{op="load"} 1' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_weird_total", tag='quote " and \\ slash').inc()
        line = [l for l in registry.to_prometheus().splitlines()
                if l.startswith("repro_weird_total{")][0]
        assert r'\"' in line and "\\\\" in line

    def test_empty_registry_exports_empty(self):
        assert to_prometheus_text(MetricsRegistry()) == ""

    def test_deterministic_bytes(self):
        assert to_prometheus_text(make_registry()) == \
            to_prometheus_text(make_registry())


class TestSnapshot:
    def test_round_trip_into_fresh_registry(self):
        original = make_registry()
        with original.span("phase"):
            pass
        snapshot = original.snapshot()
        json.dumps(snapshot)  # must be JSON-serialisable as-is
        restored = MetricsRegistry().merge_snapshot(snapshot)
        assert restored.to_prometheus() == original.to_prometheus()
        assert [r.name for r in restored.trace] == \
            [r.name for r in original.trace]

    def test_snapshot_schema_tag(self):
        assert make_registry().snapshot()["schema"] == SNAPSHOT_SCHEMA

    def test_schema_mismatch_raises(self):
        snapshot = make_registry().snapshot()
        snapshot["schema"] = SNAPSHOT_SCHEMA + 1
        with pytest.raises(ValueError):
            merge_snapshot_into(MetricsRegistry(), snapshot)

    def test_merge_snapshot_accumulates(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(make_registry().snapshot())
        parent.merge_snapshot(make_registry().snapshot())
        assert parent.counter("repro_requests_total", op="load").value == 6

    def test_worker_fold_matches_direct_merge(self):
        """Snapshot-mediated merging (what sink replay does) equals direct
        merge."""
        via_snapshot = MetricsRegistry()
        direct = MetricsRegistry()
        for parsed in (1, 2, 3):
            worker = MetricsRegistry()
            worker.counter("repro_parsed_total", task="t").inc(parsed)
            with worker.span("worker.batch"):
                pass
            via_snapshot.merge_snapshot(worker.snapshot())
            direct.merge(worker)
        assert via_snapshot.to_prometheus() == direct.to_prometheus()
        assert len(via_snapshot.trace) == len(direct.trace) == 3
