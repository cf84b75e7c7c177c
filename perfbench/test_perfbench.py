"""The benchmark's own tests, at reduced length.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def child(workload: str, mode: str, *extra: str, seed: int = 0) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--spawned-at", "0", *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["python3", "perfbench/run.py", *args], cwd=tmp_cwd, capture_output=True, text=True
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(trace):
    done = bench(
        ROOT, "--workload", "fig08-saturated", "--seed", "0", "--seconds", "1",
        "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    table = lines[:-1]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in table
        ), metric["name"]


SHORT = ("--duration", "0.8", "--warmup", "0.3")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_is_faithful_and_splits_the_layers(workload):
    timed = child(workload, "timed", *SHORT)
    traced = child(workload, "traced", *SHORT)
    # The wrappers change nothing the simulation decides.
    assert traced["fingerprint"] == timed["fingerprint"]
    assert traced["simulated"] == timed["simulated"]
    layers = traced["layers"]
    assert traced["missing_hooks"] == []
    if workload == "tpcc-real-byz":
        assert layers["erasure.encodes"] > 0
        assert layers["erasure.decodes"] > 0
        assert layers["replication.rebuild_failures"] > 0
        assert layers["replication.rebuild_ok_ratio"] < 1
    else:
        assert layers["erasure.encodes"] == 0
        assert layers["erasure.decodes"] == 0
        assert layers["replication.rebuild_failures"] == 0
        assert layers["replication.rebuild_ok_ratio"] == 1
    assert layers["sim.events"] > 0 and layers["network.msgs"] > 0
    assert 0 <= layers["unattributed_share"] < 0.5


def test_fig08_yardstick_commit_count():
    """2 simulated seconds, 0.5 s warmup, seed 0: exactly 82,801 commits."""
    result = child("fig08-saturated", "timed")
    assert result["committed"] == 82_801
    assert result["failures"] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(
        tmp_path, "--workload", "fig08-saturated", "--seed", "0", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
