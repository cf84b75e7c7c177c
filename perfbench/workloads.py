"""The benchmark's three workloads: named MassBFT deployments built from a seed.

Every workload runs MassBFT on a nationwide-class cluster (RTTs
26.7-43.4 ms, 20 Mbps WAN per node, 2.5 Gbps LAN) with the adaptive
controller and the ``repro.obs`` tracer off, as in default runs. Each
stresses a different part of the simulator's host time; README.md in
this directory says why each was chosen.

``repro`` is imported inside each workload's factory, never at module
import, so the setup time a child measures covers the imports too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: run length plus a deployment factory."""

    name: str
    #: Simulated seconds per run, warmup included.
    duration: float
    #: Simulated seconds excluded from every simulated metric.
    warmup: float
    #: Builds the deployment from (seed, warmup).
    make: Callable[[int, float], Any]


def _fig08_saturated(seed: int, warmup: float):
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import nationwide_cluster
    from repro.workloads import make_workload

    return GeoDeployment(
        nationwide_cluster(nodes_per_group=7),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=30_000.0,
        seed=seed,
    )


def _scaled7_poisson(seed: int, warmup: float):
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import scaled_cluster
    from repro.traffic import TrafficSpec
    from repro.workloads import make_workload

    traffic = TrafficSpec.poisson(4_000.0, n_groups=7)
    return GeoDeployment(
        scaled_cluster(n_groups=7, nodes_per_group=7),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=traffic.offered_load(range(7)),
        seed=seed,
        traffic=traffic,
    )


#: Byzantine members per group, as in the Fig 15 benchmark: two per
#: group, never the observer (index 0).
BYZANTINE = ((0, (1, 2)), (1, (3, 4)), (2, (5, 6)))


def _tpcc_real_byz(seed: int, warmup: float):
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import nationwide_cluster
    from repro.workloads import make_workload

    deployment = GeoDeployment(
        nationwide_cluster(nodes_per_group=7),
        protocol_by_name("massbft"),
        # 16 warehouses, not the paper's 128: ~22% aborts instead of ~5%,
        # so real transaction logic runs under high contention.
        make_workload("tpcc", n_warehouses=16),
        offered_load=2_000.0,
        seed=seed,
        coding="real",
        execution="full",
    )
    for gid, indices in BYZANTINE:
        deployment.make_byzantine_at(
            gid=gid, count=len(indices), at=warmup, indices=list(indices)
        )
    return deployment


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig08-saturated", duration=2.0, warmup=0.5, make=_fig08_saturated),
        Workload("scaled7-poisson", duration=1.2, warmup=0.3, make=_scaled7_poisson),
        Workload("tpcc-real-byz", duration=2.5, warmup=0.5, make=_tpcc_real_byz),
    )
}
