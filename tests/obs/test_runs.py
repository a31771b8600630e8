"""The durable run ledger: records, the store contract, cross-run diff and
regression, the CLI, and the pipeline integration.

The load-bearing promises:

* recording is observational — reports are digest-identical with the
  ledger attached or not;
* the ledger inherits the artifact store's robustness stance: a corrupt
  ``obs.run`` record on disk is a *miss*, never an error;
* ``diff`` exits 0 exactly when the two reports are digest-identical;
* ``regress`` is advisory below two prior runs and hard-fails a genuine
  quality regression against the trailing median.
"""

import json

import pytest

from repro.harness.experiments import merge_report_digest, search_workload
from repro.harness.pipeline import run_pipeline, run_pipeline_incremental
from repro.obs import (
    EventLog,
    EventSink,
    MetricsRegistry,
    RunLedger,
    RunRecord,
    attach_events,
    attach_run_ledger,
)
from repro.obs.runs import (
    RUN_KIND,
    RUN_SCHEMA,
    config_fingerprint,
    diff_runs,
    main,
    regress_run,
)
from repro.persist import ArtifactStore

SIZE = 48


def run(tmp_store=None, **kwargs):
    module = search_workload(SIZE, seed=7)
    return run_pipeline(module, "runs-test", technique="salssa", threshold=1,
                        run_ledger=tmp_store, **kwargs)


def make_record(reduction=50.0, mode="cold", unix_time=100,
                report_digest="d" * 64, config=None, **overrides):
    config = config if config is not None else {"technique": "salssa"}
    fields = dict(benchmark="bench", technique="salssa", threshold=1,
                  mode=mode, config=config,
                  fingerprint=config_fingerprint(config),
                  report_digest=report_digest, baseline_size=100,
                  final_size=50, reduction_percent=reduction, attempts=10,
                  profitable_merges=5, merge_seconds=1.0,
                  phase_seconds={"merge": 1.0}, unix_time=unix_time)
    fields.update(overrides)
    return RunRecord(**fields)


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(ArtifactStore(tmp_path / "store"))


class TestRunRecord:
    def test_payload_round_trip(self):
        record = make_record(reason_codes={"profitable": 3})
        restored = RunRecord.from_payload(record.as_payload())
        assert restored == record

    def test_wrong_schema_is_a_miss(self):
        payload = make_record().as_payload()
        payload["schema"] = RUN_SCHEMA + 1
        assert RunRecord.from_payload(payload) is None

    def test_garbage_is_a_miss(self):
        assert RunRecord.from_payload("not a dict") is None
        assert RunRecord.from_payload({"schema": RUN_SCHEMA}) is None
        bad = make_record().as_payload()
        bad["threshold"] = "never"
        assert RunRecord.from_payload(bad) is None


class TestRunLedger:
    def test_record_is_content_addressed(self, ledger):
        first = ledger.record(make_record())
        again = ledger.record(make_record())
        assert first == again  # identical payload, identical address
        assert ledger.record(make_record(unix_time=101)) != first

    def test_load_round_trip_and_missing(self, ledger):
        run_id = ledger.record(make_record())
        assert ledger.load(run_id).reduction_percent == 50.0
        assert ledger.load("f" * 64) is None

    def test_corrupt_record_is_a_miss_never_an_error(self, ledger):
        keep = ledger.record(make_record())
        lose = ledger.record(make_record(unix_time=200))
        [path] = list((ledger.store.root / "objects" / RUN_KIND)
                      .glob(f"{lose[:2]}/{lose}.json"))
        path.write_text("{definitely not json")
        assert ledger.load(lose) is None
        assert [record.run_id for record in ledger.runs()] == [keep]
        # A structurally valid store record that is not a RunRecord is
        # equally a miss (and flagged back to the store as invalid).
        ledger.store.store(RUN_KIND, "0" * 64, {"schema": RUN_SCHEMA + 9})
        assert ledger.load("0" * 64) is None

    def test_runs_sorted_oldest_first(self, ledger):
        newer = ledger.record(make_record(unix_time=300))
        older = ledger.record(make_record(unix_time=100))
        assert [r.run_id for r in ledger.runs()] == [older, newer]

    def test_resolve_prefix(self, ledger):
        run_id = ledger.record(make_record())
        assert ledger.resolve(run_id[:10]) == run_id
        assert ledger.resolve("zz") is None
        ledger.record(make_record(unix_time=101))
        assert ledger.resolve("") is None  # ambiguous


class TestAttach:
    def test_accepts_path_store_ledger_and_none(self, tmp_path):
        registry = MetricsRegistry()
        from_path = attach_run_ledger(registry, tmp_path / "a")
        assert isinstance(from_path, RunLedger)
        assert registry.run_ledger is from_path
        from_store = attach_run_ledger(registry, ArtifactStore(tmp_path / "b"))
        assert isinstance(from_store, RunLedger)
        assert attach_run_ledger(registry, from_store) is from_store
        assert attach_run_ledger(registry, None) is None
        assert registry.run_ledger is None


class TestPipelineIntegration:
    def test_cold_run_records_and_stays_digest_identical(self, tmp_path):
        bare = run()
        recorded = run(tmp_store=tmp_path / "ledger", metrics=True)
        assert merge_report_digest(bare.report) == \
            merge_report_digest(recorded.report)
        [record] = recorded.metrics.run_ledger.runs()
        assert record.mode == "cold"
        assert record.benchmark == "runs-test"
        assert record.report_digest is not None
        assert record.reduction_percent == \
            pytest.approx(recorded.reduction_percent)
        assert "merge" in record.phase_seconds
        # The fingerprinted config holds only outcome-relevant settings.
        assert sorted(record.config) == [
            "benchmark", "phi_coalescing", "target",
            "technique", "threshold"]

    def test_run_with_sink_records_pointer_and_reasons(self, tmp_path):
        registry = MetricsRegistry()
        log = EventLog(capacity=16)
        log.attach_sink(EventSink(tmp_path / "sink"))
        attach_events(registry, log)
        result = run(tmp_store=tmp_path / "ledger", metrics=registry)
        [record] = result.metrics.run_ledger.runs()
        assert record.events_sink == str(tmp_path / "sink")
        assert record.events_dropped == log.dropped
        assert sum(record.reason_codes.values()) > 0

    def test_incremental_run_records_mode_and_stats(self, tmp_path):
        module = search_workload(SIZE, seed=7)
        bootstrap = run_pipeline_incremental(
            module, benchmark="runs-test",
            run_ledger=tmp_path / "ledger")
        [record] = bootstrap.result.metrics.run_ledger.runs()
        assert record.mode == "incremental"
        assert "incremental" in record.stats
        assert record.report_digest is not None

    def test_two_identical_runs_diff_clean(self, tmp_path):
        ledger_dir = tmp_path / "ledger"
        run(tmp_store=ledger_dir)
        run(tmp_store=ledger_dir)
        ledger = RunLedger(ArtifactStore(ledger_dir))
        ids = [record.run_id for record in ledger.runs()]
        assert len(ids) == 2
        status, lines = diff_runs(ledger, ids[0], ids[1])
        assert status == 0
        assert "report digest match: True" in lines[1]


class TestDiff:
    def test_matching_digests_exit_zero(self, ledger):
        a = ledger.record(make_record(unix_time=1))
        b = ledger.record(make_record(unix_time=2))
        status, lines = diff_runs(ledger, a, b)
        assert status == 0

    def test_diverging_digests_exit_one_with_drift(self, ledger):
        a = ledger.record(make_record(
            unix_time=1, reason_codes={"profitable": 5}))
        b = ledger.record(make_record(
            unix_time=2, report_digest="e" * 64,
            reason_codes={"profitable": 3, "overhead_exceeds_benefit": 2}))
        status, lines = diff_runs(ledger, a, b)
        assert status == 1
        text = "\n".join(lines)
        assert "report digest match: False" in text
        assert "overhead_exceeds_benefit" in text
        assert "verdict flips: unavailable" in text

    def test_missing_record_exit_two(self, ledger):
        a = ledger.record(make_record())
        assert diff_runs(ledger, a, "f" * 64)[0] == 2

    def test_none_digests_never_match(self, ledger):
        a = ledger.record(make_record(unix_time=1, report_digest=None))
        b = ledger.record(make_record(unix_time=2, report_digest=None))
        assert diff_runs(ledger, a, b)[0] == 1


class TestRegress:
    def test_shallow_series_is_advisory(self, ledger):
        run_id = ledger.record(make_record())
        status, lines = regress_run(ledger, run_id)
        assert status == 0
        assert any("advisory" in line for line in lines)

    def test_quality_regression_hard_fails(self, ledger):
        for stamp in (1, 2, 3):
            ledger.record(make_record(unix_time=stamp))
        newest = ledger.record(make_record(unix_time=9, reduction=10.0))
        status, lines = regress_run(ledger, newest)
        assert status == 1
        assert any("reduction_percent" in line and line.startswith("FAIL")
                   for line in lines)

    def test_wall_clock_regression_stays_advisory(self, ledger):
        for stamp in (1, 2, 3):
            ledger.record(make_record(unix_time=stamp))
        newest = ledger.record(make_record(unix_time=9, merge_seconds=50.0))
        status, lines = regress_run(ledger, newest)
        assert status == 0
        assert any("merge_seconds" in line and line.startswith("WARN")
                   for line in lines)

    def test_other_configurations_not_in_series(self, ledger):
        # Deep history under a *different* fingerprint must not make the
        # judged run's own series any deeper.
        for stamp in (1, 2, 3):
            ledger.record(make_record(unix_time=stamp,
                                      config={"technique": "fmsa"}))
        newest = ledger.record(make_record(unix_time=9, reduction=10.0))
        assert regress_run(ledger, newest)[0] == 0

    def test_missing_run_exit_two(self, ledger):
        assert regress_run(ledger, "f" * 64)[0] == 2


class TestCLI:
    def store_arg(self, ledger):
        return ["--store", str(ledger.store.root)]

    def test_list_and_filters(self, ledger, capsys):
        ledger.record(make_record(unix_time=1))
        ledger.record(make_record(unix_time=2, benchmark="other"))
        assert main(self.store_arg(ledger) + ["list"]) == 0
        assert len([line for line in
                    capsys.readouterr().out.strip().splitlines()
                    if not line.startswith("run id")]) == 2
        assert main(self.store_arg(ledger)
                    + ["list", "--benchmark", "other"]) == 0
        out = capsys.readouterr().out
        assert "other" in out and "bench " not in out
        assert main(self.store_arg(ledger)
                    + ["list", "--technique", "fmsa"]) == 0
        assert "(no runs matched)" in capsys.readouterr().out

    def test_show_accepts_prefix(self, ledger, capsys):
        run_id = ledger.record(make_record())
        assert main(self.store_arg(ledger) + ["show", run_id[:8]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == run_id
        assert main(self.store_arg(ledger) + ["show", "zz"]) == 2

    def test_diff_exit_codes(self, ledger, capsys):
        a = ledger.record(make_record(unix_time=1))
        b = ledger.record(make_record(unix_time=2, report_digest="e" * 64))
        assert main(self.store_arg(ledger) + ["diff", a[:8], a]) == 0
        assert main(self.store_arg(ledger) + ["diff", a, b]) == 1
        assert main(self.store_arg(ledger) + ["diff", a, "zz"]) == 2
        capsys.readouterr()

    def test_regress_exit_codes(self, ledger, capsys):
        for stamp in (1, 2, 3):
            ledger.record(make_record(unix_time=stamp))
        bad = ledger.record(make_record(unix_time=9, reduction=10.0))
        assert main(self.store_arg(ledger) + ["regress", bad[:8]]) == 1
        capsys.readouterr()
