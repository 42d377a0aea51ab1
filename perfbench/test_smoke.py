"""Smoke-sized self-test of every benchmark workload.

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced on tiny inputs. The test
checks the output contract (every metric named in BENCHMARK.json, with its
unit), the correctness gate, and two per-run counts of the current engine
at the seed: three cut-table builds per run and one ``evolve`` call per
evaluation plus one for the final verification.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, dict | None, str]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    code, result, stderr = _run(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace:
        path = os.path.join(HERE, "out", f"{workload}-seed{SEED}-trace1-smoke.json")
        with open(path, encoding="utf-8") as fh:
            per_run = json.load(fh)["per_layer_detail"]["per_run"]
        assert per_run
        for run in per_run:
            assert run["cut_table_builds"] == 3, run
            assert run["evolve_calls"] == run["evaluations"] + 1, run


def test_refuses_to_run_without_the_package():
    """Only BENCHMARK.json and the benchmark: fail fast, print no result."""
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
