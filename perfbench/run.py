"""The repository benchmark: host and simulated cost of MassBFT deployments.

Run from the repository root::

    python3 perfbench/run.py --workload fig08-saturated --seed 0 --seconds 24 --trace 0

Each deployment run is a fresh single-threaded process
(``child.py``), and runs go one at a time. ``--seed`` stands for
:data:`SUBSEEDS` deployment seeds. An invocation first makes one untimed
run with the InvariantSuite attached, then:

* ``--trace 0`` cycles timed runs through the deployment seeds for
  ``--seconds`` and reports the median of each host metric over the
  runs and the mean of each simulated metric over the seeds;
* ``--trace 1`` alternates untimed and traced runs of the first
  deployment seed for ``--seconds`` and reports the per-layer metrics,
  the tracing overhead and the share of wall time no layer claims.

Every run's simulated metrics and fingerprint must match the other runs
of its deployment seed, and its output checks must pass; otherwise the
command prints ``"correct": false`` and exits 1. The last line of
standard output is the JSON result; a full record with provenance and
every run's raw values goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Deployment seeds per invocation. The simulated end-to-end metrics are
#: the mean over them, which narrows their seed-to-seed spread.
SUBSEEDS = 3
#: Fewest timed runs per deployment seed, even past --seconds, so every
#: seed's runs can be checked against each other. A traced invocation
#: makes at least one untimed and one traced run, on the first seed.
MIN_TIMED_RUNS_PER_SEED = 2
#: A child that takes longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 60.0

HOST_METRICS = ("wall_s_per_sim_s", "setup_s", "peak_rss_mb")


def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares, in declared order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def _command_output(*cmd: str) -> Optional[str]:
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=20, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, workload) -> Dict[str, object]:
    """Where and on what code the numbers were taken."""
    rev = dirty = None
    if _command_output("git", "rev-parse", "--show-toplevel") == str(ROOT):
        rev = _command_output("git", "rev-parse", "HEAD")
        status = _command_output("git", "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    # The source digest identifies the code even where git is absent.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "sim_duration_s": workload.duration,
        "sim_warmup_s": workload.warmup,
    }


def spawn(workload: str, seed: int, mode: str, spans: Optional[Path] = None) -> Dict:
    """Run one child process to completion and return its result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "failures": [f"{mode} run timed out"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"mode": mode, "failures": [f"{mode} run exited {done.returncode}"] + tail}
    return json.loads(lines[-1])


def run_for(budget_s: float, plan: List[Tuple[str, int]], minimum: int, workload: str, spans: Path) -> List[Dict]:
    """Make runs in ``plan`` order (mode, deployment seed), cycling, until
    the next run would overrun the budget; the first ``minimum`` runs are
    always made."""
    runs: List[Dict] = []
    took: Dict[str, List[float]] = {}
    start = time.monotonic()
    for mode, seed in itertools.cycle(plan):
        if len(runs) >= minimum:
            expected = statistics.median(took[mode])
            if time.monotonic() - start + expected > budget_s:
                return runs
        run_start = time.monotonic()
        runs.append(spawn(workload, seed, mode, spans if mode == "traced" else None))
        if "fingerprint" not in runs[-1]:
            return runs
        took.setdefault(mode, []).append(time.monotonic() - run_start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    seeds = [args.seed * SUBSEEDS + i for i in range(SUBSEEDS)]

    runs = [spawn(workload.name, seeds[0], "invariant")]
    if "fingerprint" in runs[0]:
        if args.trace:
            plan = [("timed", seeds[0]), ("traced", seeds[0])]
            minimum = len(plan)
        else:
            plan = [("timed", seed) for seed in seeds]
            minimum = MIN_TIMED_RUNS_PER_SEED * len(plan)
        runs += run_for(args.seconds, plan, minimum, workload.name, out_dir / f"{stem}-spans.npz")

    failures = [f"{r['mode']} run: {f}" for r in runs for f in r["failures"]]
    by_seed: Dict[int, List[Dict]] = {}
    for r in runs:
        if "fingerprint" in r:
            by_seed.setdefault(r["seed"], []).append(r)
    for seed, same in sorted(by_seed.items()):
        fingerprints = {r["fingerprint"] for r in same}
        simulated = {json.dumps(r["simulated"], sort_keys=True) for r in same}
        if len(fingerprints) != 1 or len(simulated) != 1:
            failures.append(
                f"{len(same)} runs of deployment seed {seed} disagree: {len(fingerprints)} "
                f"fingerprints, {len(simulated)} simulated-metric sets"
            )
    failed = sum(1 for r in runs if r["failures"])
    timed = [r for r in runs if r["mode"] == "timed"]
    samples = min(r["samples"] for same in by_seed.values() for r in same) if by_seed else 0

    # A failed invocation reports no metrics.
    metrics: Dict[str, float] = {}
    if not failures and args.trace:
        traced = [r for r in runs if r["mode"] == "traced"]
        metrics = dict(traced[0]["layers"])
        for key in metrics:
            if key.endswith(".self_s") or key == "unattributed_share":
                metrics[key] = statistics.median(r["layers"][key] for r in traced)
        untraced_wall = statistics.median(r["wall_s_per_sim_s"] for r in timed)
        traced_wall = statistics.median(r["wall_s_per_sim_s"] for r in traced)
        metrics["traced_wall_s_per_sim_s"] = traced_wall
        metrics["trace_overhead"] = traced_wall / untraced_wall - 1
    elif not failures:
        metrics = {key: statistics.median(r[key] for r in timed) for key in HOST_METRICS}
        for key in timed[0]["simulated"]:
            metrics[key] = statistics.fmean(same[0]["simulated"][key] for same in by_seed.values())
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if metrics and set(metrics) != set(units):
        failures.append(f"reported metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    metrics = {key: metrics[key] for key in units if key in metrics}

    record = {
        "provenance": provenance(args, workload),
        "failures": failures,
        "deployment_seeds": sorted(by_seed),
        "samples": samples,
        "metrics": metrics,
        "runs": runs,
    }
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(runs), "failed": max(1, failed), "metrics": {}}))
        return 1
    print(
        f"deployment seeds {sorted(by_seed)}; latency samples per run >= {samples} "
        f"({samples // 1000} beyond p99.9)"
    )
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    result = {
        "correct": True,
        "attempted": len(runs),
        "failed": 0,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
