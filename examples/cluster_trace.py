#!/usr/bin/env python
"""Look inside an execution: resource Gantt charts for IJ and GH.

Runs both QES algorithms on a small cluster with telemetry enabled and
renders what every disk, NIC and CPU was doing over time from the
resource-occupancy spans it recorded.  The charts make
the cost models' structure visible: the Indexed Join alternates network
transfers with CPU probes and never touches scratch disks; Grace Hash
shows its two phases — partition (storage disks + NICs + bucket writes)
then a barrier, then bucket joins (scratch reads + CPU).

Run:  python examples/cluster_trace.py
"""

from repro import GraceHashQES, IndexedJoinQES
from repro.cluster import ClusterSim, ClusterTopology
from repro.telemetry.export import gantt
from repro.workloads import GridSpec, build_oil_reservoir_dataset

SPEC = GridSpec(g=(32, 32, 32), p=(8, 8, 8), q=(8, 8, 8))
N_S = N_J = 3


def trace_one(qes_cls):
    ds = build_oil_reservoir_dataset(SPEC, num_storage=N_S, functional=False)
    sim = ClusterSim(ClusterTopology(N_S, N_J), telemetry=True)
    report = qes_cls(
        sim, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
    ).run()
    return sim, report


def main() -> None:
    for qes_cls in (IndexedJoinQES, GraceHashQES):
        sim, report = trace_one(qes_cls)
        # stable, readable row order: storage disks, NICs, scratch, CPUs
        rows = [s.disk.name for s in sim.storage_nodes]
        rows += [f"nic{i}" for i in range(N_S + N_J)]
        rows += [c.scratch.name for c in sim.compute_nodes if c.has_local_disk]
        rows += [c.cpu.name for c in sim.compute_nodes]
        print(f"=== {report.algorithm}: {report.total_time:.3f}s simulated ===")
        print(gantt(sim.telemetry, width=64, resources=rows))
        print()
    print(
        "Reading the charts: IJ keeps scratch disks idle (no bucket I/O),\n"
        "while GH's scratch rows light up in two bands — writes during the\n"
        "partition phase, reads during the bucket-join phase after the\n"
        "barrier.  NIC rows show where the transfer bottleneck sits."
    )


if __name__ == "__main__":
    main()
