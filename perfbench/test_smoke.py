"""Smoke test of the benchmark itself, at tiny scale.

Each workload must emit every metric named in BENCHMARK.json with its
unit, pass the digest check, and honour the seed argument; without the
program beside it the benchmark must fail without printing a result.
Run from the root of a repository checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the contract workloads, plus the one that runs by hand only
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["campaign-rerun"]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, record: Path | None = None):
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    if record is not None:
        cmd += ["--record", str(record)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(bench(workload, 3, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_honours_the_seed(workload, tmp_path):
    digests = {}
    for seed in (3, 4, 11):  # 11 falls in the same seed class as 3
        result_of(bench(workload, seed, 0, record=tmp_path / f"{seed}.json"))
        digests[seed] = json.loads((tmp_path / f"{seed}.json").read_text())["digests"]
    assert digests[3] == digests[11]
    assert digests[3] != digests[4]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
