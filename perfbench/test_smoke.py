"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, emits every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("solver.iterations", "solver.history_samples", "regularity.evaluations", "spectral.rows_dropped")

sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if not trace:
            assert value > 0, name


def test_traced_counts_repeat_exactly():
    first, second = (_result(_run("sphere_serial", 1))["metrics"] for _ in range(2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_workload_table_matches_spec():
    import bench

    assert sorted(bench.WORKLOADS) == sorted(bench.TINY) == sorted(WORKLOADS)
    for name, tiny in bench.TINY.items():
        assert tiny.kind == bench.WORKLOADS[name].kind


def test_self_time_excludes_children():
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    times = tracer.self_times()
    outer = times["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - times["inner"]["total_s"])
    assert times["inner"]["self_s"] == times["inner"]["total_s"] >= 0.01


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
