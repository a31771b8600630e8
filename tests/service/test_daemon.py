"""The resident daemon: digest parity with batch runs, hot caches, ops.

The service's headline contract is that residency is *free* correctness-
wise: a job's report digest is bit-identical to a cold ``run_pipeline``
over the same module text, whatever technique the session is pinned to,
and however many warm jobs preceded it.
"""

import random
import urllib.request

import pytest

from repro.harness.experiments import search_workload
from repro.harness.pipeline import run_pipeline
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.obs import report_digest_hex
from repro.service import MergeService, ServiceClient
from repro.service.loadgen import percentile, run_loadgen
from repro.workloads.mutate import constant_sites, mutate_constant


def _mutated_stream(functions=20, seed=5, edits=3):
    """A module plus a stream of single-function edits (text snapshots)."""
    module = search_workload(functions, seed=seed)
    rng = random.Random(seed)
    snapshots = [print_module(module)]
    patches = []
    for _ in range(edits):
        victims = [f for f in module.functions if not f.is_declaration()]
        target = rng.choice(victims)
        mutate_constant(target, rng)
        patches.append(print_function(target))
        snapshots.append(print_module(module))
    return snapshots, patches


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_digest_parity_matrix(technique):
    """{salssa,fmsa}: every job matches its batch run."""
    snapshots, patches = _mutated_stream()
    with MergeService() as service:
        with ServiceClient(service.host, service.port) as client:
            responses = [client.submit("parity", module=snapshots[0],
                                       technique=technique)]
            for patch in patches:
                responses.append(client.submit("parity",
                                               functions=[patch]))
    for snapshot, response in zip(snapshots, responses):
        batch = run_pipeline(parse_module(snapshot), "parity",
                             technique=technique)
        assert response["digest"] == report_digest_hex(batch.report)
    assert [r["warm"] for r in responses] == [False] + [True] * len(patches)


@pytest.mark.parametrize("rejected", [
    {"functions": ["define i32 @broken( {"]},
    {"remove": ["no_such_function"]},
], ids=["unparseable_function", "unknown_removal"])
def test_rejected_patch_leaves_session_untouched(rejected):
    """A ``bad_request`` submit applies none of its entries: a later patch
    of a different function sees exactly one changed function."""
    module = search_workload(12, seed=2)
    first, second = [f for f in module.functions if constant_sites(f)][:2]
    text = print_module(module)
    rng = random.Random(2)
    assert mutate_constant(first, rng) and mutate_constant(second, rng)
    patch_a, patch_b = print_function(first), print_function(second)
    with MergeService() as service:
        with ServiceClient(service.host, service.port) as client:
            client.submit("atomic", module=text)
            from repro.service import ServiceError
            with pytest.raises(ServiceError) as caught:
                client.submit("atomic", functions=[patch_a]
                              + rejected.get("functions", []),
                              remove=rejected.get("remove"))
            assert caught.value.code == "bad_request"
            response = client.submit("atomic", functions=[patch_b])
    assert response["incremental"]["functions_changed"] == 1


def test_session_pinned_options():
    snapshots, _ = _mutated_stream(functions=8, seed=3, edits=0)
    with MergeService() as service:
        with ServiceClient(service.host, service.port) as client:
            client.submit("pinned", module=snapshots[0],
                          technique="fmsa")
            from repro.service import ServiceError
            with pytest.raises(ServiceError) as caught:
                client.submit("pinned", module=snapshots[0],
                              technique="salssa")
            assert caught.value.code == "bad_request"


def test_submit_responses_carry_job_telemetry(tmp_path):
    snapshots, patches = _mutated_stream(functions=12, seed=7, edits=1)
    with MergeService(store=str(tmp_path / "store")) as service:
        with ServiceClient(service.host, service.port) as client:
            cold = client.submit("telemetry", module=snapshots[0])
            warm = client.submit("telemetry", functions=[patches[0]])
    for response in (cold, warm):
        assert response["digest"]
        assert response["seconds"] > 0
        assert "incremental.merge" in response["phase_seconds"]
        assert response["run_id"]  # the run ledger recorded this job
        assert response["incremental"]["attempts"] == response["attempts"]
    assert warm["incremental"]["pairs_reused"] > 0


def test_obs_endpoint_serves_resident_registry():
    snapshots, _ = _mutated_stream(functions=8, seed=4, edits=0)
    with MergeService() as service:
        with ServiceClient(service.host, service.port) as client:
            client.submit("scraped", module=snapshots[0])
        metrics = urllib.request.urlopen(
            service.obs.url + "/metrics", timeout=10).read().decode()
        assert "repro_incremental_deltas_total" in metrics
        health = urllib.request.urlopen(
            service.obs.url + "/healthz", timeout=10).read().decode()
        assert health.strip() == "ok"


def test_snapshot_sink_captures(tmp_path):
    snapshots, _ = _mutated_stream(functions=8, seed=6, edits=0)
    service = MergeService(snapshot_dir=str(tmp_path / "snaps"),
                           snapshot_interval=3600.0)
    with service:
        with ServiceClient(service.host, service.port) as client:
            client.submit("snapped", module=snapshots[0])
    # close() appends a final capture even if the interval never elapsed.
    captures = service.snapshots.replay_snapshots()
    assert captures and "snapshot" in captures[0]


def test_cache_cap_applies_to_sessions():
    snapshots, patches = _mutated_stream(functions=16, seed=8)
    with MergeService(cache_cap=5, compact_every=0) as service:
        with ServiceClient(service.host, service.port) as client:
            client.submit("capped", module=snapshots[0])
            for patch in patches:
                client.submit("capped", functions=[patch])
            info = client.sessions()["sessions"][0]
            assert info["cache_entries"] <= 5
            assert info["cache_evicted"] > 0


def test_drain_then_shutdown_clean():
    snapshots, _ = _mutated_stream(functions=8, seed=10, edits=0)
    service = MergeService()
    with ServiceClient(service.host, service.port) as client:
        client.submit("bye", module=snapshots[0])
        drained = client.drain()
        assert drained["jobs_completed"] == 1
        response = client.shutdown()
        assert response["ok"]
    assert service.closed_event.wait(timeout=30.0)
    service.close()  # idempotent after self-shutdown


def test_loadgen_open_loop(tmp_path):
    records_path = tmp_path / "records.jsonl"
    with MergeService() as service:
        summary = run_loadgen(service.host, service.port, sessions=2,
                              jobs=3, functions=10, rate=50.0, seed=3,
                              records_path=str(records_path))
    assert summary["errors"] == 0
    assert summary["jobs_completed"] == 6
    assert summary["latency_p95_seconds"] >= summary["latency_p50_seconds"]
    lines = records_path.read_text().strip().splitlines()
    assert len(lines) == 6
    # Per session: one cold bootstrap then warm jobs, all digest-bearing.
    import json
    records = [json.loads(line) for line in lines]
    for session in ("loadgen-0", "loadgen-1"):
        mine = [r for r in records if r["session"] == session]
        assert [r["warm"] for r in mine] == [False, True, True]
        assert all(r["digest"] for r in mine)


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.95) == 3.0
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 10.0
    assert percentile(values, 0.5) in (5.0, 6.0)
