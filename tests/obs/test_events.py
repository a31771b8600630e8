"""The flight recorder: ring semantics, wire format, merge-pass emission."""

import json

import pytest

from repro.harness.experiments import merge_report_digest, search_workload
from repro.harness.pipeline import run_pipeline, run_pipeline_incremental
from repro.incremental import copy_module
from repro.obs import (
    EVENT_SCHEMA,
    REASON_CODES,
    Event,
    EventLog,
    MetricsRegistry,
    as_event_log,
    attach_events,
)
from repro.obs.events import (
    REASON_BELOW_MIN_SIZE,
    REASON_COST_MODEL,
    REASON_PROFITABLE,
)


class TestEventLog:
    def test_emit_assigns_monotonic_seq(self):
        log = EventLog()
        first = log.emit("a", x=1)
        second = log.emit("b")
        assert (first.seq, second.seq) == (0, 1)
        assert log.records("a") == [first]

    def test_events_are_frozen(self):
        event = EventLog().emit("a")
        with pytest.raises(AttributeError):
            event.kind = "b"

    def test_ring_overflow_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for step in range(5):
            log.emit("tick", step=step)
        assert len(log) == 3
        assert log.dropped == 2
        assert [event.data["step"] for event in log] == [2, 3, 4]
        # Sequence ids keep climbing — gaps reveal the drops.
        assert [event.seq for event in log] == [2, 3, 4]

    def test_overflow_increments_attached_registry_counter(self):
        registry = MetricsRegistry()
        log = EventLog(capacity=2)
        attach_events(registry, log)
        for step in range(5):
            log.emit("tick", step=step)
        counter = registry.counter("repro_events_dropped_total")
        assert counter.value == 3
        assert log.dropped == 3

    def test_attach_folds_preexisting_drops(self):
        log = EventLog(capacity=1)
        log.emit("a")
        log.emit("b")  # drops "a"
        registry = MetricsRegistry()
        attach_events(registry, log)
        assert registry.counter("repro_events_dropped_total").value == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_as_event_log_coercions(self):
        assert as_event_log(None) is None
        assert as_event_log(False) is None
        assert isinstance(as_event_log(True), EventLog)
        log = EventLog()
        assert as_event_log(log) is log
        with pytest.raises(TypeError):
            as_event_log("yes")


class TestJsonl:
    def test_round_trip_preserves_events_and_seq(self):
        log = EventLog(capacity=2)
        for step in range(4):
            log.emit("tick", step=step)
        text = log.to_jsonl()
        restored = EventLog.from_jsonl(text)
        assert [event.as_dict() for event in restored] \
            == [event.as_dict() for event in log]
        assert restored.dropped == 2
        # Numbering continues after the highest recorded id.
        assert restored.emit("next").seq == log.next_seq

    def test_header_carries_schema(self):
        header = json.loads(EventLog().to_jsonl().splitlines()[0])
        assert header["repro_events_schema"] == EVENT_SCHEMA

    def test_wrong_schema_refused(self):
        bad = json.dumps({"repro_events_schema": 999}) + "\n"
        with pytest.raises(ValueError, match="schema"):
            EventLog.from_jsonl(bad)

    def test_missing_header_refused(self):
        with pytest.raises(ValueError):
            EventLog.from_jsonl("")
        event_line = json.dumps(Event(0, "a", {}).as_dict())
        with pytest.raises(ValueError):
            EventLog.from_jsonl(event_line + "\n")

    def test_write_read_file(self, tmp_path):
        log = EventLog()
        log.emit("a", value=1)
        path = str(tmp_path / "events.jsonl")
        log.write_jsonl(path)
        restored = EventLog.read_jsonl(path)
        assert restored.records("a")[0].data == {"value": 1}


class TestMerge:
    def test_merge_payload_resequences_in_arrival_order(self):
        parent = EventLog()
        parent.emit("parent")
        child = EventLog()
        child.emit("child", n=1)
        child.emit("child", n=2)
        parent.merge_payload(child.as_payload())
        assert [event.kind for event in parent] \
            == ["parent", "child", "child"]
        assert [event.seq for event in parent] == [0, 1, 2]

    def test_merge_payload_schema_mismatch_raises(self):
        payload = EventLog().as_payload()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            EventLog().merge_payload(payload)

    def test_merge_adds_dropped_counts(self):
        lossy = EventLog(capacity=1)
        lossy.emit("a")
        lossy.emit("b")
        parent = EventLog()
        parent.merge(lossy)
        assert parent.dropped == 1

    def test_registry_snapshot_carries_events(self):
        registry = MetricsRegistry()
        attach_events(registry, True)
        registry.events.emit("decision", pair="f,g")
        snapshot = registry.snapshot()
        assert snapshot["events"]["events"][0]["kind"] == "decision"

        parent = MetricsRegistry()
        attach_events(parent, True)
        parent.merge_snapshot(snapshot)
        assert parent.events.records("decision")[0].data == {"pair": "f,g"}

    def test_snapshot_events_dropped_when_parent_has_no_log(self):
        child = MetricsRegistry()
        attach_events(child, True)
        child.events.emit("decision")
        parent = MetricsRegistry()  # no recorder: events deliberately fold away
        parent.merge_snapshot(child.snapshot())
        assert parent.events is None


class TestMergePassEmission:
    def _run(self, size=48, **kwargs):
        return run_pipeline(search_workload(size), "bench",
                            technique="salssa", threshold=2, events=True,
                            **kwargs)

    def test_decision_kinds_recorded(self):
        log = self._run().metrics.events
        kinds = {event.kind for event in log}
        assert {"pair_considered", "alignment_scored", "verdict",
                "commit"} <= kinds

    def test_every_verdict_reason_is_catalogued(self):
        log = self._run().metrics.events
        for event in log.records("verdict"):
            assert event.data["reason"] in REASON_CODES

    def test_commits_match_report(self):
        result = self._run()
        commits = result.metrics.events.records("commit")
        committed = result.report.committed_records
        assert len(commits) == len(committed)
        assert [(event.data["first"], event.data["second"])
                for event in commits] \
            == [(record.first, record.second) for record in committed]

    def test_pair_considered_carries_rank_and_distance(self):
        log = self._run().metrics.events
        considered = log.records("pair_considered")
        assert considered
        for event in considered:
            assert set(event.data) == {"function", "candidate", "rank",
                                       "distance"}
            assert 0 <= event.data["rank"] < 2  # threshold 2
            assert event.data["distance"] >= 0

    def test_below_min_size_functions_reported(self):
        # min_function_size=3 default: the workload's tiny helpers skip.
        log = self._run().metrics.events
        skipped = log.records("function_skipped")
        for event in skipped:
            assert event.data["reason"] == REASON_BELOW_MIN_SIZE

    def test_verdict_reasons_cover_cost_model_and_profitable(self):
        log = self._run().metrics.events
        reasons = {event.data["reason"] for event in log.records("verdict")}
        assert REASON_PROFITABLE in reasons
        assert REASON_COST_MODEL in reasons

    def test_report_digest_identical_with_recorder_on(self):
        bare = run_pipeline(search_workload(48), "bench",
                            technique="salssa", threshold=2)
        recorded = self._run()
        assert merge_report_digest(bare.report) \
            == merge_report_digest(recorded.report)

    def test_events_off_keeps_metrics_event_free(self):
        result = run_pipeline(search_workload(32), "bench", metrics=True)
        assert result.metrics.events is None


class TestIncrementalEmission:
    def test_state_load_and_splice_provenance(self):
        module = search_workload(48)
        first = run_pipeline_incremental(copy_module(module),
                                         benchmark="inc", events=True)
        log1 = first.result.metrics.events
        assert log1.records("state_load")[0].data["provenance"] \
            == "cold_bootstrap"
        second = run_pipeline_incremental(copy_module(module), first.state,
                                          benchmark="inc", events=True)
        log2 = second.result.metrics.events
        assert log2.records("state_load")[0].data["provenance"] == "live_state"
        materialized = log2.records("materialize")
        assert materialized
        assert all(event.data["mode"] == "splice" for event in materialized)
        cached = [event for event in log2.records("verdict")
                  if event.data.get("provenance") == "attempt_cache"]
        assert cached
