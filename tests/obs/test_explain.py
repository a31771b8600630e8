"""The repro-explain CLI and its query library."""

import subprocess
import sys

import pytest

from repro.harness.experiments import search_workload
from repro.harness.pipeline import run_pipeline
from repro.obs import EventLog, EventSink, REASON_CODES
from repro.obs.explain import (
    diff_logs,
    explain_pair,
    main,
    pair_events,
    slowest_attempts,
    summarize,
)


@pytest.fixture(scope="module")
def recorded():
    """One recorded salssa run: (result, event log)."""
    result = run_pipeline(search_workload(48), "bench", technique="salssa",
                          threshold=2, events=True)
    return result, result.metrics.events


class TestExplainPair:
    def test_every_recorded_pair_reproduces_its_verdict(self, recorded):
        """The acceptance bar: for every pair the pass judged — committed or
        rejected — explain_pair answers with the recorded verdict and a
        catalogued reason code."""
        result, log = recorded
        committed_pairs = {(record.first, record.second)
                           for record in result.report.committed_records}
        seen = set()
        for event in log.records("verdict"):
            pair = (event.data["function"], event.data["candidate"])
            if pair in seen:
                continue
            seen.add(pair)
            story = explain_pair(log, *pair)
            assert story["verdict"] is not None, pair
            assert story["reason"] in REASON_CODES, pair
            assert story["committed"] == (pair in committed_pairs), pair
            if story["committed"]:
                assert story["outcome"].startswith("merged")
            else:
                assert not story["outcome"].startswith("merged")
        assert seen, "run recorded no verdicts — bad fixture"

    def test_pair_order_does_not_matter(self, recorded):
        _, log = recorded
        event = log.records("verdict")[0]
        first, second = event.data["function"], event.data["candidate"]
        assert explain_pair(log, first, second)["outcome"] \
            == explain_pair(log, second, first)["outcome"]

    def test_unknown_pair(self, recorded):
        _, log = recorded
        story = explain_pair(log, "nope_a", "nope_b")
        assert story["verdict"] is None
        assert "never considered" in story["outcome"]

    def test_skipped_pair_reports_skip_reason(self):
        log = EventLog()
        log.emit("pair_considered", function="f", candidate="g", rank=0,
                 distance=0)
        log.emit("pair_skipped", function="f", candidate="g",
                 reason="candidate_consumed")
        story = explain_pair(log, "f", "g")
        assert story["reason"] == "candidate_consumed"
        assert "never attempted" in story["outcome"]

    def test_pair_events_matches_commit_kinds(self, recorded):
        _, log = recorded
        commit = log.records("commit")[0]
        timeline = pair_events(log, commit.data["first"],
                               commit.data["second"])
        assert any(event.kind == "commit" for event in timeline)


class TestSlowest:
    def test_ranked_by_recorded_seconds(self, recorded):
        _, log = recorded
        ranked = slowest_attempts(log, top=5)
        assert len(ranked) == 5
        seconds = [entry[0] for entry in ranked]
        assert seconds == sorted(seconds, reverse=True)

    def test_empty_log(self):
        assert slowest_attempts(EventLog()) == []


class TestDiff:
    def test_detects_changed_verdicts(self):
        ours, theirs = EventLog(), EventLog()
        ours.emit("verdict", function="f", candidate="g", profitable=True,
                  reason="profitable")
        theirs.emit("verdict", function="f", candidate="g", profitable=False,
                    reason="cost_model_delta")
        theirs.emit("verdict", function="x", candidate="y", profitable=False,
                    reason="merge_error")
        delta = diff_logs(ours, theirs)
        assert len(delta["changed"]) == 1
        assert delta["changed"][0][0] == ("f", "g")
        assert [key for key, _ in delta["only_theirs"]] == [("x", "y")]
        assert delta["only_ours"] == []

    def test_identical_logs_diff_empty(self, recorded):
        _, log = recorded
        round_tripped = EventLog.from_jsonl(log.to_jsonl())
        delta = diff_logs(log, round_tripped)
        assert delta == {"changed": [], "only_ours": [], "only_theirs": []}


class TestSummarize:
    def test_headline_counts(self, recorded):
        _, log = recorded
        summary = summarize(log)
        assert summary["events"] == len(log)
        assert summary["commits"] == len(log.records("commit"))
        assert set(summary["kinds"]) == {event.kind for event in log}


class TestCli:
    def _write(self, tmp_path, log):
        path = str(tmp_path / "events.jsonl")
        log.write_jsonl(path)
        return path

    def test_summary_exit_zero(self, recorded, tmp_path, capsys):
        _, log = recorded
        assert main([self._write(tmp_path, log)]) == 0
        out = capsys.readouterr().out
        assert "commits" in out

    def test_pair_output_names_reason_code(self, recorded, tmp_path, capsys):
        _, log = recorded
        commit = log.records("commit")[0]
        pair = f"{commit.data['first']},{commit.data['second']}"
        assert main([self._write(tmp_path, log), "--pair", pair]) == 0
        out = capsys.readouterr().out
        assert "merged (committed)" in out
        assert "reason code: profitable" in out

    def test_bad_pair_argument(self, recorded, tmp_path):
        _, log = recorded
        assert main([self._write(tmp_path, log), "--pair", "only_one"]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main([str(tmp_path / "missing.jsonl")]) == 2

    def test_slowest_and_diff(self, recorded, tmp_path, capsys):
        _, log = recorded
        path = self._write(tmp_path, log)
        assert main([path, "--slowest", "3"]) == 0
        assert main([path, "--diff", path]) == 0
        out = capsys.readouterr().out
        assert "0 changed" in out

    def test_accepts_sink_directory(self, recorded, tmp_path, capsys):
        # A rotating-sink directory works anywhere a log file does.
        _, log = recorded
        sink_dir = tmp_path / "sink"
        spill = EventLog.from_jsonl(log.history_jsonl())
        spill.attach_sink(EventSink(sink_dir))
        assert main([str(sink_dir)]) == 0
        from_sink = capsys.readouterr().out
        assert main([self._write(tmp_path, log)]) == 0
        assert from_sink == capsys.readouterr().out
        assert main([str(sink_dir), "--diff", str(sink_dir)]) == 0
        assert "0 changed" in capsys.readouterr().out

    def test_module_entry_point(self, recorded, tmp_path):
        _, log = recorded
        path = self._write(tmp_path, log)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.obs.explain", path],
            capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0
        assert "commits" in completed.stdout
