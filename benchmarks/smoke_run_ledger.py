#!/usr/bin/env python
"""CI smoke for the durable run ledger (``repro.obs.runs``).

Plays the cross-run story end to end, the way ``docs/runs.md`` tells it:

1. bootstrap an incremental state over a small module, apply a
   single-function edit;
2. **incremental** re-run with a ledger attached — one ``obs.run`` record;
3. **cold** run of the identical edited module with the same ledger *and*
   a sink-backed flight recorder whose ring is too small to retain the
   run — a second record, plus rotated segments on disk;
4. assert the sink replay holds every event the ring dropped;
5. drive the ``repro-runs`` CLI against the ledger: ``list`` shows both
   records, ``diff cold incremental`` exits 0 (report digests match),
   ``regress`` stays advisory at depth zero.

The ledger store (``benchmarks/run.ledger/``) and the rotated event
segments (``benchmarks/run.events.sink/``) are left behind for CI to
upload as build artifacts, so any CI run's history can be queried later
with ``repro-runs --store``.

Exit status: 0 on success, 1 on any validation failure.  Run as CI does::

    PYTHONPATH=src python benchmarks/smoke_run_ledger.py
"""

from __future__ import annotations

import os
import random
import shutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.harness.experiments import (  # noqa: E402
    merge_report_digest,
    search_workload,
)
from repro.harness.pipeline import (  # noqa: E402
    run_pipeline,
    run_pipeline_incremental,
)
from repro.incremental import copy_module  # noqa: E402
from repro.obs import (  # noqa: E402
    EventLog,
    EventSink,
    MetricsRegistry,
    attach_events,
    read_sink_events,
)
from repro.obs.runs import main as runs_main  # noqa: E402
from repro.workloads import mutate_constant  # noqa: E402

#: Module size: big enough to commit merges, small enough for CI.
SMOKE_SIZE = 64
#: Ring capacity for the cold run — small enough that it must overflow.
RING_CAPACITY = 64
#: Segment size — small enough to force at least one rotation.
SINK_MAX_BYTES = 32 * 1024

_HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER_OUT = os.path.join(_HERE, "run.ledger")
SINK_OUT = os.path.join(_HERE, "run.events.sink")


def cli(*argv: str) -> int:
    """Run the ``repro-runs`` CLI in-process against the smoke ledger."""
    print(f"smoke_run_ledger: $ repro-runs --store {LEDGER_OUT} "
          + " ".join(argv))
    return runs_main(["--store", LEDGER_OUT, *argv])


def main() -> int:
    for stale in (LEDGER_OUT, SINK_OUT):
        shutil.rmtree(stale, ignore_errors=True)

    print(f"smoke_run_ledger: bootstrapping incremental state "
          f"({SMOKE_SIZE} functions)")
    module = search_workload(SMOKE_SIZE)
    bootstrap = run_pipeline_incremental(module, benchmark="smoke")
    state = bootstrap.state

    rng = random.Random(SMOKE_SIZE)
    functions = module.defined_functions()
    if not any(mutate_constant(target, rng)
               for target in functions[len(functions) // 3:]):
        print("smoke_run_ledger: FAIL workload has no mutable constant")
        return 1

    print("smoke_run_ledger: incremental re-run (ledger attached)")
    warm = run_pipeline_incremental(module, state, benchmark="smoke",
                                    run_ledger=LEDGER_OUT)

    print("smoke_run_ledger: cold run of the edited module "
          "(ledger + rotating event sink)")
    registry = MetricsRegistry()
    log = EventLog(capacity=RING_CAPACITY)
    log.attach_sink(EventSink(SINK_OUT, max_bytes=SINK_MAX_BYTES))
    attach_events(registry, log)
    cold = run_pipeline(copy_module(module), "smoke", metrics=registry,
                        run_ledger=LEDGER_OUT)
    log.sink.flush()

    if merge_report_digest(warm.report) != merge_report_digest(cold.report):
        print("smoke_run_ledger: FAIL incremental vs cold report diverged")
        return 1

    replayed = read_sink_events(SINK_OUT)
    print(f"smoke_run_ledger: sink replay {len(replayed)}/{log.next_seq} "
          f"events (ring dropped {log.dropped}, "
          f"{log.sink.rotations} rotations)")
    if len(replayed) != log.next_seq or replayed.dropped:
        print("smoke_run_ledger: FAIL sink replay is missing events")
        return 1
    if not log.dropped:
        print("smoke_run_ledger: FAIL ring never overflowed — "
              "the smoke proves nothing, shrink RING_CAPACITY")
        return 1
    log.sink.close()
    registry.close()

    ledger = warm.result.metrics.run_ledger
    records = {record.mode: record for record in ledger.runs()}
    if set(records) != {"cold", "incremental"}:
        print(f"smoke_run_ledger: FAIL expected one cold + one incremental "
              f"record, ledger holds {sorted(records)}")
        return 1
    cold_id = records["cold"].run_id
    warm_id = records["incremental"].run_id

    if cli("list") != 0:
        print("smoke_run_ledger: FAIL repro-runs list")
        return 1
    if cli("show", cold_id[:12]) != 0:
        print("smoke_run_ledger: FAIL repro-runs show")
        return 1
    # Digest parity is the diff contract: exit 0 means the reports match.
    if cli("diff", cold_id, warm_id) != 0:
        print("smoke_run_ledger: FAIL repro-runs diff reported divergence")
        return 1
    # A one-deep series must stay advisory, never fail.
    if cli("regress", cold_id) != 0:
        print("smoke_run_ledger: FAIL repro-runs regress failed at depth 0")
        return 1

    print(f"smoke_run_ledger: ledger at {LEDGER_OUT}, "
          f"segments at {SINK_OUT}")
    print("smoke_run_ledger: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
