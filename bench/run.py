"""Run the merge-pipeline benchmark.

One workload, measured in this process::

    python3 bench/run.py --workload salssa-256 --seed 7 --seconds 20 --trace 0

prints the metrics as a table and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the metrics are the per-layer ones, the spans are written to
``bench/out/trace-<workload>.jsonl`` and a self-time table is printed.

Every workload, each in a fresh subprocess, one at a time::

    python3 bench/run.py [--seed 7] [--iterations 1] [--out FILE] [--trace]

Iteration ``i`` runs the workloads in the order ``random.Random(i ^ seed)``
shuffles them into, each with seed ``i ^ seed``.  ``--smoke`` shrinks every
workload to a few seconds (32 functions, one rep, five deltas).

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A child that overruns this is stuck; a full-size run takes well under a
#: minute.
CHILD_TIMEOUT_SECONDS = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def use_program_sources() -> None:
    """Import the program from this checkout's ``src/``, or exit."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {source / 'repro'}; run the "
                 f"benchmark from a checkout of the repository")
    sys.path.insert(0, str(source))


def print_end_to_end(name: str, seed: int, spec: dict, values, outcome,
                     live: bool) -> None:
    counts = outcome.samples()
    print(f"{name} · seed {seed} · host_cpus {host_cpus()}")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<14} {values[metric['name']]:>12.4f} "
              f"{metric['unit']:<3} n={counts[metric['name']]}")
    latencies = [seconds for reps in outcome.compile_s for seconds in reps]
    if live and len(latencies) >= 2:
        # p80: a full run has at least 60 deltas, so ten or more lie beyond.
        p80 = statistics.quantiles(latencies, n=5)[-1]
        beyond = sum(1 for value in latencies if value > p80)
        print(f"  {'delta_s_p80':<14} {p80:>12.4f} s   n={len(latencies)} "
              f"({beyond} beyond)")
    print(f"  {'fail_rate':<14} {outcome.failed / outcome.attempted:>12.4f} "
          f"    {outcome.failed}/{outcome.attempted} operations")


def print_layers(name: str, layers: Dict[str, float]) -> None:
    if not layers:
        print(f"{name} · no layer table: an operation failed")
        return
    spans = {key[:-2]: value for key, value in layers.items()
             if key.endswith("_s")}
    total = sum(spans.values())
    print(f"{name} · self time per operation "
          f"(traced total {total:.4f} s, overhead "
          f"{layers['trace.overhead']:.2f}x)")
    print(f"  {'layer':<26} {'self s':>10} {'share':>7} {'calls':>10}")
    for layer, seconds in sorted(spans.items(), key=lambda kv: -kv[1]):
        calls = layers.get(f"{layer}_calls", 0)
        print(f"  {layer:<26} {seconds:>10.4f} {seconds / total:>7.1%} "
              f"{calls:>10.1f}")
    for key, value in sorted(layers.items()):
        if not key.endswith(("_s", "_calls")):
            print(f"  {key:<26} {value:>10.4f}")


def run_one(args, spec: dict) -> int:
    use_program_sources()
    from tracing import Tracer
    from workloads import (WORKLOADS, measure_cold, measure_live,
                           settings_for, trace_cold, trace_live)

    workload = WORKLOADS[args.workload]
    settings = settings_for(workload, args.seed, args.seconds, args.smoke)
    if args.trace:
        tracer = Tracer()
        trace = trace_live if workload.live else trace_cold
        outcome = trace(workload, settings, tracer)
        tracer.write_jsonl(BENCH / "out" / f"trace-{workload.name}.jsonl")
        print_layers(workload.name, outcome.layers)
        metrics = {metric["name"]: {
            "value": outcome.layers.get(metric["name"], 0),
            "unit": metric["unit"]} for metric in spec["per_layer"]}
    else:
        measure = measure_live if workload.live else measure_cold
        outcome = measure(workload, settings)
        values = outcome.end_to_end()
        print_end_to_end(workload.name, args.seed, spec, values, outcome,
                         workload.live)
        metrics = {metric["name"]: {"value": values[metric["name"]],
                                    "unit": metric["unit"]}
                   for metric in spec["end_to_end"]}
    for problem in outcome.problems:
        print(f"bench: {workload.name}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}), flush=True)
    return 0


def schedule(names: List[str], iterations: int,
             seed: int) -> List[Tuple[int, int, str]]:
    """``(iteration, seed, workload)`` in run order.

    Iterations form the outer loop, so a stopped run still holds whole
    iterations; inside one, the order is shuffled with its own seed, so a
    slow phase of the host does not always land on the same workload.
    """
    runs = []
    for iteration in range(iterations):
        order = list(names)
        random.Random(iteration ^ seed).shuffle(order)
        runs.extend((iteration, iteration ^ seed, name) for name in order)
    return runs


def run_all(args, spec: dict) -> int:
    """Each workload in its own subprocess, serially, in shuffled order."""
    names = [workload["name"] for workload in spec["workloads"]]
    runs: List[dict] = []
    for iteration, seed, name in schedule(names, args.iterations, args.seed):
        print(f"== iteration {iteration} · {name} · seed {seed}", flush=True)
        command = [sys.executable, str(BENCH / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        completed = subprocess.run(command, cwd=ROOT, text=True,
                                   stdout=subprocess.PIPE,
                                   timeout=CHILD_TIMEOUT_SECONDS)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = None
        if completed.returncode == 0 and lines:
            result = json.loads(lines[-1])
        else:
            print(f"bench: {name} exited with {completed.returncode}",
                  file=sys.stderr)
        runs.append({"iteration": iteration, "workload": name,
                     "seed": seed, "result": result})

    failures = [run for run in runs if run["result"] is None
                or not run["result"]["correct"]]
    print(f"host_cpus {host_cpus()} · {len(runs)} runs · "
          f"{len(failures)} with failed operations or no result")
    if args.out:
        record = {"host_cpus": host_cpus(), "seed": args.seed,
                  "iterations": args.iterations, "seconds": args.seconds,
                  "trace": bool(args.trace), "smoke": args.smoke,
                  "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    return 1 if failures else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Benchmark the merge pipeline end to end and by layer.")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer self times instead")
    parser.add_argument("--iterations", type=int, default=1,
                        help="passes over every workload")
    parser.add_argument("--out", help="write every run's result as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
