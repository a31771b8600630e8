"""What a metrics scraper reads, checked without a server.

Label values survive the Prometheus text and the JSON snapshot, the minimal
Prometheus parser reads what the exporter writes, and exports racing a
mutating registry stay parsable.
"""

import json
import math
import threading

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    attach_events,
    parse_prometheus_text,
)


class TestConcurrentScrape:
    def test_scrapes_survive_a_mutating_registry(self):
        """Exports racing live label-set creation must never error and must
        always return parsable text."""
        registry = MetricsRegistry()
        attach_events(registry, EventLog(capacity=1024))
        stop = threading.Event()
        errors = []

        def mutate():
            step = 0
            while not stop.is_set():
                registry.counter("repro_churn_total",
                                 op=f"op{step % 50}").inc()
                registry.timer("repro_churn_seconds",
                               phase=f"p{step % 20}").observe(0.001 * step)
                registry.events.emit("tick", step=step)
                step += 1

        writer = threading.Thread(target=mutate, daemon=True)
        writer.start()
        try:
            for _ in range(8):
                try:
                    parse_prometheus_text(registry.to_prometheus())
                    json.loads(json.dumps(registry.snapshot()))
                    EventLog.from_jsonl(registry.events.history_jsonl())
                except ValueError as error:
                    errors.append(error)
        finally:
            stop.set()
            writer.join(timeout=5)
        assert not writer.is_alive()
        assert not errors

    def test_ring_overflow_is_visible_in_metrics(self):
        registry = MetricsRegistry()
        attach_events(registry, EventLog(capacity=4))
        for step in range(10):
            registry.events.emit("tick", step=step)
        _, samples = parse_prometheus_text(registry.to_prometheus())
        assert ("repro_events_dropped_total", {}, 6.0) in samples
        restored = EventLog.from_jsonl(registry.events.history_jsonl())
        assert len(restored) == 4
        assert restored.dropped == 6
        # The surviving window is the most recent one.
        assert [event.data["step"] for event in restored] == [6, 7, 8, 9]


class TestLabelEscaping:
    AWKWARD = 'sp ace\\back"quote\nnewline'

    def test_label_values_round_trip_through_metrics(self):
        registry = MetricsRegistry()
        registry.counter("repro_escape_total", tag=self.AWKWARD).inc()
        _, samples = parse_prometheus_text(registry.to_prometheus())
        assert ("repro_escape_total", {"tag": self.AWKWARD}, 1.0) in samples

    def test_label_values_round_trip_through_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_escape_total", tag=self.AWKWARD).inc(2)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        restored = MetricsRegistry()
        restored.merge_snapshot(snapshot)
        child = restored.counter("repro_escape_total", tag=self.AWKWARD)
        assert child.value == 2


class TestPrometheusParser:
    def test_inf_and_bucket_suffixes(self):
        registry = MetricsRegistry()
        registry.timer("repro_t_seconds", phase="x").observe(0.2)
        text = registry.to_prometheus()
        types, samples = parse_prometheus_text(text)
        assert types["repro_t_seconds"] == "histogram"
        inf_buckets = [s for s in samples
                       if s[0] == "repro_t_seconds_bucket"
                       and s[1].get("le") == "+Inf"]
        assert inf_buckets and inf_buckets[0][2] == 1.0
        assert math.isinf(float("inf"))

    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_prometheus_text("repro_unknown_total 1\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("# TYPE repro_x_total counter\n"
                                  "repro_x_total{oops 1\n")
        with pytest.raises(ValueError, match="comment"):
            parse_prometheus_text("# BOGUS thing\n")
