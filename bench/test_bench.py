"""Tests of the benchmark itself; run with ``python -m pytest bench``.

They drive ``run.py --smoke`` (32 functions, one rep, five deltas) as a
user would, in subprocesses, plus ``compare.py`` on synthetic results.
"""

import json
import shutil
import subprocess
import sys

import pytest

import compare
from run import ROOT, load_spec, schedule

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          text=True, capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "a.json"
    completed = bench("--smoke", "--seed", "3", "--out", str(out))
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "trace.json"
    completed = bench("--smoke", "--trace", "--out", str(out))
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, json.loads(out.read_text())


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, record = smoke
    blocks = stdout.split("== iteration")[1:]
    assert len(blocks) == len(WORKLOADS)
    for block in blocks:
        for metric in SPEC["end_to_end"]:
            assert f"  {metric['name']} " in block
            line = next(line for line in block.splitlines()
                        if line.startswith(f"  {metric['name']} "))
            assert f" {metric['unit']} " in line and " n=" in line
        assert "fail_rate" in block
    assert record["host_cpus"] >= 1
    for run in record["runs"]:
        result = run["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for metric in SPEC["end_to_end"]:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"] and value["value"] > 0


def test_runs_follow_the_seeded_shuffle(smoke):
    stdout, record = smoke
    expected = schedule(WORKLOADS, 1, 3)
    assert expected == schedule(WORKLOADS, 1, 3)
    assert [(run["iteration"], run["seed"], run["workload"])
            for run in record["runs"]] == expected
    headers = [line for line in stdout.splitlines()
               if line.startswith("== iteration")]
    assert headers == [f"== iteration {i} · {name} · seed {seed}"
                       for i, seed, name in expected]


def test_traced_run_matches_untraced_and_fills_every_layer(traced):
    stdout, record = traced
    by_workload = {run["workload"]: run["result"] for run in record["runs"]}
    assert set(by_workload) == set(WORKLOADS)
    for name, result in by_workload.items():
        assert f"{name} · self time per operation" in stdout
        # A traced digest that differs from the untraced one fails the run.
        assert result["correct"], name
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert (ROOT / "bench" / "out" / f"trace-{name}.jsonl").is_file()

    def value(name, metric):
        return by_workload[name]["metrics"][metric]["value"]

    for name in ("salssa-256", "fmsa-256", "salssa-1024"):
        for metric in ("baseline.mem2reg_s", "baseline.emit_s",
                       "merge.codegen_s", "merge.align_s", "merge.attempts",
                       "ir.unique_name_calls", "analysis.domtrees_built"):
            assert value(name, metric) > 0, (name, metric)
        assert value(name, "incremental.assemble_s") == 0
    for metric in ("fmsa.clone_s", "fmsa.reg2mem_s", "fmsa.mem2reg_s",
                   "fmsa.residue_s"):
        assert value("fmsa-256", metric) > 0
        assert value("salssa-256", metric) == 0
    for metric in ("incremental.detect_s", "incremental.apply_delta_s",
                   "incremental.assemble_s", "incremental.reuse_ratio",
                   "obs.emit_calls", "search.query_calls"):
        assert value("live-256", metric) > 0
    assert value("live-256", "baseline.verify_s") == 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = bench("--workload", "salssa-256", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def _results_file(path, compile_s, failed=0):
    runs = []
    for iteration, value in enumerate(compile_s):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["compile_s"]["value"] = value
        runs.append({"iteration": iteration, "workload": "salssa-256",
                     "seed": iteration,
                     "result": {"correct": failed == 0, "attempted": 10,
                                "failed": failed, "metrics": metrics}})
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_flags_a_compile_slower_than_its_bound(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "compile_s")
    factor = 1 + bound + 0.05
    base = _results_file(tmp_path / "a.json", [1.00, 1.01, 0.99])
    same = _results_file(tmp_path / "b.json", [1.01, 1.00, 0.99])
    slower = _results_file(tmp_path / "c.json",
                           [factor, factor + 0.01, factor - 0.01])
    assert compare.main([base, same]) == 0
    assert compare.main([base, slower]) == 1
    report = capsys.readouterr().out.split("compile_s")[-1]
    assert f"{factor - 1:+.1%}  worse" in report


def test_compare_fails_on_failed_operations(tmp_path):
    base = _results_file(tmp_path / "a.json", [1.0, 1.0])
    broken = _results_file(tmp_path / "b.json", [1.0, 1.0], failed=1)
    assert compare.main([base, broken]) == 1


def test_compare_leaves_wide_spreads_unresolved():
    assert compare.verdict([1.0, 1.5, 0.8, 1.2], [1.1, 1.4, 0.9, 1.3],
                           "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0, 1.5, 0.8, 1.2], [0.5, 0.6, 0.55, 0.7],
                           "lower", 0.1) == "ok"
    assert compare.verdict([20.0], [18.0], "higher", 0.05) == "worse"
