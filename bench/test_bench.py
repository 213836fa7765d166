"""The benchmark's own smoke test.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at its tiny size in both modes and checks that each
metric BENCHMARK.json names is reported with its unit, that the counters
repeat exactly between two traced runs, that span self times leave out the
children, that a tampered trace fails the output check, and that the
benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import greedyexp  # noqa: E402
import greedyexp.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout
    assert out["attempted"] >= 1 and out["failed"] == 0
    return out["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload):
    plain = result(bench(workload, 0))
    assert {k: v["unit"] for k, v in plain.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain.values())

    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    assert {k: v["unit"] for k, v in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert set(run.EXACT_COUNTERS) <= counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["engine.run.steps"]["value"] > 0


def test_self_time_leaves_out_children():
    t = tracing.Tracer()
    leaf = t.wrap(lambda: time.sleep(0.01), "leaf")

    def root():
        leaf()
        leaf()
        time.sleep(0.005)

    t.wrap(root, "root")()
    totals = t.totals()
    assert totals["leaf"][0] == 2 and totals["root"][0] == 1
    root_span = list(t.span_name).index(t.names.index("root"))
    duration = t.span_end[root_span] - t.span_start[root_span]
    assert totals["leaf"][1] + totals["root"][1] == duration
    assert totals["leaf"][1] >= 20_000_000 > totals["root"][1] >= 5_000_000


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tampered_trace_fails_the_repetition(workload, tmp_path):
    w = workloads.make(workload, 3, "tiny", str(tmp_path))
    rep, problems = run.do_rep(greedyexp, w, run.Checker(w, None))
    assert problems == []

    lines = open(rep.trace_csv).read().splitlines(keepends=True)
    row = lines[len(lines) // 2].split(",")
    row[6] = repr(float(row[6]) * (1 + 1e-6))          # residual_norm
    lines[len(lines) // 2] = ",".join(row)
    tampered = str(tmp_path / "tampered.csv")
    with open(tampered, "w") as fh:
        fh.writelines(lines)
    rep.trace_csv = tampered
    problems = run.Checker(w, None).check(rep)
    assert any("residual_norm" in p for p in problems), problems


def test_pinned_digest_mismatch_fails_the_repetition(tmp_path):
    w = workloads.make("counterexample_roundtrip", 3, "tiny", str(tmp_path))
    checker = run.Checker(w, "0" * 64)
    _, problems = run.do_rep(greedyexp, w, checker)
    assert any("pinned" in p for p in problems), problems


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("onb_wide", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
