"""Durable rotating sinks: rotation, crash tolerance, the write-ahead
contract with the flight recorder, and the sink-backed event history.

The load-bearing promises, each pinned here:

* rotated segments replay in order, gzipped or not, racing rotation or not;
* a crash leaves at worst a truncated trailing line — replay recovers the
  complete prefix silently, and the next sink finalizes the leftover;
* an ``EventLog`` with a sink attached writes ahead of ring eviction, so
  disk history stays complete (``dropped == 0`` on replay) however small
  the ring;
* an incompatible segment schema refuses loudly — the one defect where
  silence would be worse than an error.
"""

import gzip
import json
import threading
import time

import pytest

from repro.obs import (
    EventLog,
    EventSink,
    MetricsRegistry,
    RotatingSink,
    attach_events,
    load_events_path,
    read_sink_events,
    replay_records,
)
from repro.obs.sink import SINK_SCHEMA, _segment_indices


def fill(sink, count, size=40):
    for index in range(count):
        assert sink.append({"n": index, "pad": "x" * size})


class TestRotation:
    def test_rotates_on_size_and_replays_in_order(self, tmp_path):
        with RotatingSink(tmp_path, max_bytes=256) as sink:
            fill(sink, 20)
            assert sink.rotations > 1
            assert sink.lines_written == 20
        records = list(replay_records(tmp_path))
        assert [record["n"] for record in records] == list(range(20))

    def test_rotates_on_age(self, tmp_path):
        with RotatingSink(tmp_path, max_age_seconds=0.0) as sink:
            fill(sink, 3)
            # Every append past the first finds the active segment too old.
            assert sink.rotations >= 2
        assert [r["n"] for r in replay_records(tmp_path)] == [0, 1, 2]

    def test_finalized_segments_published_atomically(self, tmp_path):
        sink = RotatingSink(tmp_path, max_bytes=128)
        fill(sink, 10)
        states = list(_segment_indices(tmp_path, "records").values())
        # Everything but the active segment has dropped its .open suffix.
        assert set(states) <= {"", ".open"}
        assert states.count(".open") <= 1
        sink.close()
        assert set(_segment_indices(tmp_path, "records").values()) == {""}

    def test_gzip_compression_round_trips(self, tmp_path):
        with RotatingSink(tmp_path, max_bytes=128, compress=True) as sink:
            fill(sink, 12)
        names = {path.name for path in tmp_path.iterdir()}
        assert any(name.endswith(".jsonl.gz") for name in names)
        assert [r["n"] for r in replay_records(tmp_path)] == list(range(12))

    def test_closed_sink_refuses_appends_and_counts(self, tmp_path):
        sink = RotatingSink(tmp_path)
        sink.close()
        assert not sink.append({"n": 0})
        assert sink.write_errors == 1

    def test_invalid_prefix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RotatingSink(tmp_path, prefix="no/slashes")

    def test_unserializable_record_counted_not_raised(self, tmp_path):
        sink = RotatingSink(tmp_path)
        assert not sink.append({"bad": object()})
        assert sink.write_errors == 1
        assert sink.append({"good": 1})  # the sink keeps going


class TestCrashTolerance:
    def test_truncated_trailing_line_yields_complete_prefix(self, tmp_path):
        sink = RotatingSink(tmp_path, max_bytes=10_000)
        fill(sink, 5)
        sink.flush()
        # Simulate the crash: chop the active segment mid-record.
        [active] = [p for p in tmp_path.iterdir() if p.name.endswith(".open")]
        active.write_bytes(active.read_bytes()[:-17])
        assert [r["n"] for r in replay_records(tmp_path)] == [0, 1, 2, 3]

    def test_partial_rotated_segment_ends_quietly(self, tmp_path):
        with RotatingSink(tmp_path, max_bytes=256) as sink:
            fill(sink, 20)
        finalized = sorted(p for p in tmp_path.iterdir()
                           if p.name.endswith(".jsonl"))
        # Corrupt the tail of a *middle* segment: its complete prefix still
        # replays, and replay continues into the following segments.
        victim = finalized[1]
        victim.write_bytes(victim.read_bytes()[:-20] + b"{garbage\n")
        survivors = [r["n"] for r in replay_records(tmp_path)]
        assert survivors == sorted(survivors)
        assert 0 in survivors and 19 in survivors
        assert len(survivors) < 20

    def test_leftover_open_segment_finalized_by_next_sink(self, tmp_path):
        first = RotatingSink(tmp_path)
        fill(first, 3)
        first.flush()  # abandoned without close(): the crash scenario
        second = RotatingSink(tmp_path)
        assert second.active_index == 1
        fill(second, 2)
        second.close()
        assert set(_segment_indices(tmp_path, "records").values()) == {""}
        assert [r["n"] for r in replay_records(tmp_path)] == [0, 1, 2, 0, 1]

    def test_wrong_schema_refused_loudly(self, tmp_path):
        (tmp_path / "records-00000000.jsonl").write_text(
            json.dumps({"repro_sink_schema": SINK_SCHEMA + 1}) + "\n"
            + json.dumps({"n": 0}) + "\n")
        with pytest.raises(ValueError, match="unsupported sink schema"):
            list(replay_records(tmp_path))

    def test_truncated_gzip_segment_yields_prefix(self, tmp_path):
        with RotatingSink(tmp_path, max_bytes=128, compress=True) as sink:
            fill(sink, 12)
        [first_gz] = [p for p in sorted(tmp_path.iterdir())
                      if p.name.endswith(".gz")][:1]
        blob = first_gz.read_bytes()
        first_gz.write_bytes(blob[:len(blob) // 2])
        survivors = [r["n"] for r in replay_records(tmp_path)]
        assert 11 in survivors  # later segments unaffected
        assert len(survivors) < 12

    def test_empty_directory_replays_nothing(self, tmp_path):
        assert list(replay_records(tmp_path / "absent")) == []


class TestWriteAhead:
    def test_disk_complete_when_ring_overflows(self, tmp_path):
        log = EventLog(capacity=4)
        log.attach_sink(EventSink(tmp_path, max_bytes=512))
        for index in range(32):
            log.emit("decision", n=index)
        assert log.dropped == 28
        replayed = read_sink_events(tmp_path)
        assert len(replayed) == 32
        assert replayed.dropped == 0
        assert [event.seq for event in replayed] == list(range(32))

    def test_attach_spills_already_retained_events(self, tmp_path):
        log = EventLog(capacity=8)
        log.emit("early", n=0)
        log.emit("early", n=1)
        log.attach_sink(EventSink(tmp_path))
        log.emit("late", n=2)
        kinds = [event.kind for event in read_sink_events(tmp_path)]
        assert kinds == ["early", "early", "late"]

    def test_worker_batch_fold_flows_through_sink(self, tmp_path):
        worker = EventLog(capacity=16)
        worker.emit("artifact", task=1)
        worker.emit("artifact", task=2)
        parent = EventLog(capacity=16)
        parent.attach_sink(EventSink(tmp_path))
        parent.merge_payload(worker.as_payload())
        assert [e.data["task"] for e in read_sink_events(tmp_path)] == [1, 2]

    def test_detach_stops_spilling(self, tmp_path):
        log = EventLog(capacity=8)
        log.attach_sink(EventSink(tmp_path))
        log.emit("kept")
        log.attach_sink(None)
        log.emit("unseen")
        assert [e.kind for e in read_sink_events(tmp_path)] == ["kept"]

    def test_history_jsonl_prefers_sink(self, tmp_path):
        log = EventLog(capacity=2)
        log.attach_sink(EventSink(tmp_path))
        for index in range(6):
            log.emit("decision", n=index)
        restored = EventLog.from_jsonl(log.history_jsonl())
        assert len(restored) == 6
        assert restored.dropped == 0
        # Without a sink the rendering falls back to the (lossy) ring.
        bare = EventLog(capacity=2)
        for index in range(6):
            bare.emit("decision", n=index)
        assert EventLog.from_jsonl(bare.history_jsonl()).dropped == 4


class TestLoadEventsPath:
    def test_dispatches_file_and_directory(self, tmp_path):
        log = EventLog(capacity=8)
        log.attach_sink(EventSink(tmp_path / "sink"))
        log.emit("decision", n=0)
        file_path = tmp_path / "events.jsonl"
        log.write_jsonl(str(file_path))
        from_file = load_events_path(file_path)
        from_dir = load_events_path(tmp_path / "sink")
        assert [e.kind for e in from_file] == [e.kind for e in from_dir] \
            == ["decision"]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_events_path(tmp_path / "nope.jsonl")


class TestConcurrentScrape:
    def test_events_scrape_serves_full_history_while_sink_rotates(
            self, tmp_path):
        """Reading the history races emission and rotation and must always
        see a parsable, complete-so-far history (dropped == 0)."""
        registry = MetricsRegistry()
        log = EventLog(capacity=8)
        log.attach_sink(EventSink(tmp_path, max_bytes=512, compress=True))
        attach_events(registry, log)
        stop = threading.Event()

        def writer():
            index = 0
            while not stop.is_set():
                log.emit("decision", n=index)
                index += 1

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            seen = []
            deadline = time.monotonic() + 10
            # Keep reading until the writer has rotated mid-race, so reads
            # overlap rotation and gzip finalization.
            while (len(seen) < 10 or log.sink.rotations < 2) \
                    and time.monotonic() < deadline:
                body = log.history_jsonl()
                restored = EventLog.from_jsonl(
                    body, capacity=max(len(body), 1))
                assert restored.dropped == 0
                seqs = [event.seq for event in restored]
                assert seqs == sorted(seqs)
                seen.append(len(restored))
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen == sorted(seen)  # history only ever grows
        assert log.sink.rotations > 0  # the race actually happened
        assert log.sink.write_errors == 0
