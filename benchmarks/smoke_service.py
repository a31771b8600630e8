#!/usr/bin/env python
"""CI smoke for the resident merge service (``repro-serve``).

Boots the daemon as a real subprocess (ephemeral job + obs ports, artifact
store with run ledger, periodic snapshot sink), then plays an operator's
day against it:

1. **concurrent load** — ``repro.service.loadgen`` drives several open-loop
   Poisson sessions at once; every job must complete, error-free, with a
   digest and a run-ledger id, and the per-job records land in
   ``benchmarks/service.records.jsonl`` for CI to upload;
2. **digest parity** — a dedicated session submits a module plus two
   single-function patches, and every reply's report digest must be
   bit-identical to a cold ``run_pipeline`` over the same module text;
3. **residency** — the resident ``/metrics`` endpoint must serve the live
   registry;
4. **clean drain/shutdown** — ``drain`` accounts for every job, ``shutdown``
   acknowledges, and the daemon process exits 0 on its own.

With ``REPRO_TREND=1`` the loadgen summary appends a ``service_load`` trend
row (p50/p95 latency, jobs/sec) so ``plot_trend.py`` renders a service lane
and ``check_trend.py`` gates its error count.

Exit status: 0 on success, 1 on any validation failure.  Run as CI does::

    PYTHONPATH=src python benchmarks/smoke_service.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.harness.experiments import search_workload  # noqa: E402
from repro.harness.pipeline import run_pipeline  # noqa: E402
from repro.ir.parser import parse_module  # noqa: E402
from repro.ir.printer import print_function, print_module  # noqa: E402
from repro.obs import report_digest_hex  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.loadgen import run_loadgen  # noqa: E402
from repro.workloads.mutate import mutate_constant  # noqa: E402

from conftest import append_trend  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDS_OUT = os.path.join(HERE, "service.records.jsonl")
STORE_OUT = os.path.join(HERE, "service.store")

#: Offered load: sessions x jobs open-loop streams of this module size.
SESSIONS = 3
JOBS = 3
FUNCTIONS = 24

#: The parity session's module size and edit count.
PARITY_FUNCTIONS = 32
PARITY_EDITS = 2


def start_daemon() -> "tuple[subprocess.Popen, dict]":
    process = subprocess.Popen(
        [sys.executable, "-c",
         "from repro.service.daemon import main; raise SystemExit(main())",
         "--port", "0",
         "--store", STORE_OUT,
         "--cache-cap", "4096", "--compact-every", "8"],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.join(os.path.dirname(HERE), "src")})
    banner_line = process.stdout.readline()
    try:
        banner = json.loads(banner_line)
    except ValueError:
        process.kill()
        raise AssertionError(f"no JSON banner from repro-serve: "
                             f"{banner_line!r}")
    return process, banner


def check_parity(host: str, port: int) -> None:
    module = search_workload(PARITY_FUNCTIONS, seed=17)
    snapshots = [print_module(module)]
    patches = []
    rng = random.Random(17)
    for _ in range(PARITY_EDITS):
        victims = [f for f in module.functions if not f.is_declaration()]
        target = rng.choice(victims)
        mutate_constant(target, rng)
        patches.append(print_function(target))
        snapshots.append(print_module(module))
    with ServiceClient(host, port, timeout=300.0) as client:
        responses = [client.submit("parity", module=snapshots[0])]
        for patch in patches:
            responses.append(client.submit("parity", functions=[patch]))
    for index, (snapshot, response) in enumerate(zip(snapshots, responses)):
        batch = run_pipeline(parse_module(snapshot), "parity")
        expected = report_digest_hex(batch.report)
        assert response["digest"] == expected, \
            f"job {index}: service digest {response['digest'][:12]} != " \
            f"batch {expected[:12]}"
    print(f"smoke_service: parity ok over {len(responses)} jobs "
          f"(cold + {PARITY_EDITS} patches)")


def main() -> int:
    process, banner = start_daemon()
    print(f"smoke_service: repro-serve up on "
          f"{banner['host']}:{banner['port']} "
          f"(obs={banner['obs_url']})")
    try:
        summary = run_loadgen(
            banner["host"], banner["port"], sessions=SESSIONS, jobs=JOBS,
            functions=FUNCTIONS, rate=10.0, seed=11,
            records_path=RECORDS_OUT)
        print(f"smoke_service: loadgen "
              f"{summary['jobs_completed']}/{summary['jobs_requested']} "
              f"jobs, p50 {summary['latency_p50_seconds']:.3f}s, "
              f"p95 {summary['latency_p95_seconds']:.3f}s, "
              f"{summary['jobs_per_second']:.2f} jobs/s")
        if summary["errors"] or \
                summary["jobs_completed"] != summary["jobs_requested"]:
            print(f"smoke_service: FAIL loadgen errors: "
                  f"{summary['error_detail']}")
            return 1
        with open(RECORDS_OUT, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == SESSIONS * JOBS, "records file incomplete"
        assert all(r["digest"] for r in records), "job without a digest"
        assert all(r["run_id"] for r in records), \
            "job missing from the run ledger"
        print(f"smoke_service: {len(records)} records written, every job "
              f"digest-bearing and ledger-recorded")

        check_parity(banner["host"], banner["port"])

        metrics = urllib.request.urlopen(
            banner["obs_url"] + "/metrics", timeout=10).read().decode()
        assert "repro_incremental_deltas_total" in metrics, \
            "resident registry missing incremental counters"
        print("smoke_service: resident /metrics endpoint serves the "
              "session registry")

        expected_jobs = SESSIONS * JOBS + 1 + PARITY_EDITS
        with ServiceClient(banner["host"], banner["port"]) as client:
            drained = client.drain()
            assert drained["jobs_completed"] == expected_jobs, \
                f"drain saw {drained['jobs_completed']} jobs, " \
                f"expected {expected_jobs}"
            response = client.shutdown()
            assert response["ok"], f"shutdown rejected: {response}"
        code = process.wait(timeout=60)
        assert code == 0, f"repro-serve exited {code}"
        print(f"smoke_service: drained {expected_jobs} jobs, daemon exited "
              f"cleanly")

        append_trend(
            "service_load", sessions=SESSIONS, jobs=JOBS,
            num_functions=FUNCTIONS, host_cpus=os.cpu_count(),
            jobs_per_second=round(summary["jobs_per_second"], 3),
            latency_p50_seconds=round(summary["latency_p50_seconds"], 5),
            latency_p95_seconds=round(summary["latency_p95_seconds"], 5),
            warm_cold_ratio=round(
                summary["latency_p50_seconds"]
                / summary["warm_latency_p50_seconds"], 3)
            if summary["warm_latency_p50_seconds"] else 0.0,
            errors=summary["errors"])
        print("smoke_service: ok")
        return 0
    except AssertionError as failure:
        print(f"smoke_service: FAIL {failure}")
        return 1
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
