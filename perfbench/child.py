"""One benchmark run in a fresh, single-threaded process.

Usage (normally spawned by ``run.py``)::

    python perfbench/child.py --workload NAME --seed N --mode MODE \\
        --spawned-at MONOTONIC [--spans PATH] [--duration S --warmup S]

``MODE`` is ``timed`` (end-to-end run, no instrumentation), ``invariant``
(untimed run with ``repro.check``'s InvariantSuite attached) or
``traced`` (per-layer spans from :mod:`layertrace`). The run's
correctness checks happen after the timed region. The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import struct
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

#: p99.9 needs at least this many samples beyond it to be resolved.
MIN_TAIL_SAMPLES = 10


def simulated_metrics(metrics) -> Dict[str, float]:
    """The four simulated end-to-end metrics (exact for a seed)."""
    offered = metrics.offered_txns
    return {
        "commit_tps": metrics.throughput,
        "p50_commit_ms": metrics.p50_latency * 1e3,
        "p999_commit_ms": metrics.p999_latency * 1e3,
        "failed_frac": (metrics.dropped_txns + metrics.aborted_attempts) / offered
        if offered
        else 0.0,
    }


def fingerprint(deployment, metrics) -> str:
    """Digest of everything the simulation decided: commits, every latency
    sample in commit order, traffic accounting, event and message counts,
    and each observer's ledger tip."""
    h = hashlib.sha256()
    h.update(
        repr(
            (
                metrics.committed,
                metrics.committed_by_group,
                metrics.aborted_attempts,
                metrics.traffic_summary(),
                sorted(metrics.phase_durations().items()),
                deployment.sim.events_processed,
                deployment.network._next_msg_id,
                deployment.network.wan_bytes_total,
                deployment.network.lan_bytes_total,
            )
        ).encode()
    )
    samples = metrics.latency.samples
    h.update(struct.pack(f"<{len(samples)}d", *samples))
    for addr, node in sorted(deployment.nodes.items()):
        if node.ledger is not None and node.ledger.height:
            h.update(repr(addr).encode())
            h.update(node.ledger.records[-1].ledger_hash)
    return h.hexdigest()


def check_run(deployment, metrics) -> List[str]:
    """Output checks made after the timed region; returns the failures."""
    failures: List[str] = []
    observers = [
        node
        for node in deployment.nodes.values()
        if node.is_observer
        and node.ledger is not None
        and not node.crashed
        and not node.byzantine
    ]
    reference = max(observers, key=lambda node: node.ledger.height)
    if reference.ledger.height == 0:
        failures.append("no observer executed anything")
    for node in observers:
        split = reference.ledger.divergence(node.ledger)
        if split is not None:
            failures.append(
                f"ledgers of {reference.addr} and {node.addr} diverge at height {split}"
            )
    for gid, group in sorted(deployment.groups.items()):
        load = group.load
        queued = sum(len(queue) for queue in load._queues)
        if load.offered != load.admitted + load.dropped + queued:
            failures.append(
                f"group {gid}: offered {load.offered} != admitted {load.admitted} "
                f"+ dropped {load.dropped} + queued {queued}"
            )
    samples = metrics.latency.count
    if samples < MIN_TAIL_SAMPLES * 1000:
        failures.append(
            f"{samples} latency samples leave fewer than {MIN_TAIL_SAMPLES} beyond p99.9"
        )
    return failures


def layer_report(tracer, deployment, metrics, duration: float, wall: float) -> Dict[str, float]:
    """Per-layer counts (post-warmup) and self seconds per simulated second."""
    from layertrace import LAYERS, UNATTRIBUTED

    end = tracer.counters()
    start = tracer.at_warmup
    if start is None:
        raise RuntimeError("the warmup counter snapshot never ran")
    calls = [b - a for a, b in zip(start["calls"], end["calls"])]
    by_name = dict(zip(tracer.names, calls))
    by_layer = tracer.calls_by_layer(calls)
    transport = {
        key: end["transport"].get(key, 0) - start["transport"].get(key, 0)
        for key in ("wan_chunks", "rebuild_failures")
    }
    aborted = end["exec_aborted"] - start["exec_aborted"]
    executed = end["exec_committed"] - start["exec_committed"] + aborted
    committed = max(1, metrics.committed)
    rebuilt = by_name.get("EncodedBijectiveTransport._finish", 0)
    attempts = rebuilt + transport["rebuild_failures"]
    batch_cap = deployment.max_batch_txns
    gated = sum(sum(reasons.values()) for reasons in metrics.gated_counts.values())
    phases = metrics.phase_durations()
    metric_samples = (
        len(metrics.latency.samples)
        + sum(len(h.samples) for h in metrics.latency_by_group)
        + len(metrics.throughput_timeline.points)
        + len(metrics.latency_timeline.points)
    )
    report = {
        "sim.events": end["events"] - start["events"],
        "sim.events_per_commit": (end["events"] - start["events"]) / committed,
        "sim.queue_peak": tracer.queue_peak,
        "network.msgs": end["messages"] - start["messages"],
        "network.msgs_per_commit": (end["messages"] - start["messages"]) / committed,
        "network.wan_bytes_per_commit": deployment.network.wan_bytes_total / committed,
        "pbft.rounds": by_name.get("ModeledPbftGroup.propose", 0),
        "replication.entries": by_name.get("DisseminationStage.replicate", 0),
        "replication.chunks": transport["wan_chunks"],
        "replication.rebuild_failures": transport["rebuild_failures"],
        "replication.rebuild_ok_ratio": rebuilt / attempts if attempts else 1.0,
        "erasure.encodes": by_name.get("ReedSolomonCodec.encode", 0),
        "erasure.decodes": by_name.get("ReedSolomonCodec.decode", 0),
        "global_phase.calls": by_layer["global_phase"],
        "ordering.timestamps": by_name.get("DeterministicOrderer.on_timestamp", 0),
        "execution.txns": executed,
        "execution.abort_ratio": aborted / executed if executed else 0.0,
        "load.txns": metrics.admitted_txns,
        "load.dropped": metrics.dropped_txns,
        "load.gated_stalls": gated,
        "load.batch_fill": metrics.mean_batch_size / batch_cap,
        "metrics.samples": metric_samples,
    }
    for phase in (
        "batching",
        "local_consensus",
        "global_replication",
        "global_consensus",
        "ordering_execution",
    ):
        report[f"phase.{phase}_ms"] = phases.get(phase, 0.0) * 1e3
    for layer in LAYERS:
        report[f"{layer}.self_s"] = tracer.self_time[layer] / duration
    report["unattributed_share"] = tracer.self_time[UNATTRIBUTED] / wall
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "invariant", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds (default: the workload's; shorter runs are for tests)",
    )
    parser.add_argument("--warmup", type=float, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    duration = args.duration if args.duration is not None else workload.duration
    warmup = args.warmup if args.warmup is not None else workload.warmup

    tracer = None
    if args.mode == "traced":
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    deployment = workload.make(args.seed, warmup)
    suite = None
    if args.mode == "invariant":
        from repro.check.invariants import InvariantSuite

        suite = InvariantSuite.attach(deployment)
    if tracer is not None:
        tracer.deployment = deployment

    setup_s = time.monotonic() - args.spawned_at
    start = time.perf_counter()
    metrics = deployment.run(duration, warmup=warmup)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_run(deployment, metrics)
    if suite is not None:
        for violation in suite.audit(end_time=duration):
            failures.append(f"invariant {violation.invariant}: {violation.message}")
    result = {
        "mode": args.mode,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall,
        "wall_s_per_sim_s": wall / duration,
        "peak_rss_mb": peak_rss_mb,
        "committed": metrics.committed,
        "samples": metrics.latency.count,
        "simulated": simulated_metrics(metrics),
        "fingerprint": fingerprint(deployment, metrics),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = layer_report(tracer, deployment, metrics, duration, wall)
        result["missing_hooks"] = tracer.missing
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
