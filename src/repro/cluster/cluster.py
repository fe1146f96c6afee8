"""Cluster assembly: engine + fabric + nodes, with testbed presets.

:class:`ClusterSim` wires a :class:`~repro.cluster.events.SimEngine`, a
network fabric and the storage/compute node bundles together and exposes
the composite operations the QES implementations need:

* ``read_and_send(storage, compute, nbytes)`` — BDS chunk service: disk
  read on the storage node, then network transfer to the compute node
  (synchronous RPC-style, mirroring the request/response implementation
  the paper describes).
* ``ingest_write`` / ``scratch_read`` — Grace Hash bucket I/O on the
  compute node; in the NFS topology these route over the network to the
  shared server's disk.
* ``compute(...)`` — CPU reservations for hash build/probe work.

Topology presets:

* :func:`paper_cluster` — ``n_s`` storage + ``n_j`` compute nodes on a
  switched fabric (the 10-node testbed of Section 6).
* :func:`nfs_cluster` — the Figure 9 scenario: a single NFS server holds
  all data *and* all scratch space; compute nodes have no local disks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.events import Event, Process, SimEngine
from repro.cluster.network import NetworkFabric, NFSFabric
from repro.cluster.nodes import ComputeNode, MachineSpec, StorageNode, PAPER_MACHINE
from repro.cluster.resources import BandwidthResource

__all__ = ["ClusterSim", "ClusterTopology", "paper_cluster", "nfs_cluster"]


@dataclass(frozen=True)
class ClusterTopology:
    """Shape of a cluster: node counts and storage mode."""

    num_storage: int
    num_compute: int
    shared_nfs: bool = False

    def __post_init__(self) -> None:
        if self.num_storage <= 0 or self.num_compute <= 0:
            raise ValueError("need at least one storage and one compute node")
        if self.shared_nfs and self.num_storage != 1:
            raise ValueError("the shared-NFS topology has exactly one storage server")


class ClusterSim:
    """A simulated coupled storage/compute cluster.

    Fabric ids: storage nodes take ``0 .. n_s-1``, compute nodes take
    ``n_s .. n_s+n_j-1``.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        spec: MachineSpec = PAPER_MACHINE,
        storage_specs: Optional[Dict[int, MachineSpec]] = None,
        compute_specs: Optional[Dict[int, MachineSpec]] = None,
        faults=None,
        tie_break: str = "fifo",
        telemetry: bool = False,
    ):
        """Assemble a cluster.

        ``storage_specs`` / ``compute_specs`` override the uniform ``spec``
        for individual node ids — heterogeneous clusters (mixed hardware
        generations, a degraded disk, a straggler CPU) are the norm on real
        deployments and the subject of the straggler ablation.  The network
        fabric stays uniform at ``spec.link_bw`` (a switch port is a switch
        port); per-node overrides affect disks and CPU constants.

        ``faults`` takes a :class:`repro.faults.FaultPlan`; the cluster
        instantiates a :class:`repro.faults.FaultInjector` for it (exposed
        as ``self.faults``) and every storage transfer is routed through
        its guards.  A trivial (empty) plan leaves the run byte-identical
        to ``faults=None``.

        ``tie_break`` is forwarded to the :class:`SimEngine`; anything but
        the default ``"fifo"`` is for the sanitizer's shadow runs only.

        ``telemetry`` builds a :class:`repro.telemetry.Telemetry` hub for
        the run (exposed as ``self.telemetry``): causal span tracing, the
        metrics registry, and one resource-occupancy span per reservation
        (what :func:`repro.telemetry.export.gantt` draws).  The hub watches
        the cluster layer as a subscriber of the engine's event channel.
        """
        self.topology = topology
        self.spec = spec
        storage_specs = storage_specs or {}
        compute_specs = compute_specs or {}
        for d, limit, kind in (
            (storage_specs, topology.num_storage, "storage"),
            (compute_specs, topology.num_compute, "compute"),
        ):
            for node_id in d:
                if not (0 <= node_id < limit):
                    raise ValueError(f"no {kind} node {node_id} in this topology")
        self.engine = SimEngine(tie_break=tie_break)
        self.telemetry = None
        if telemetry:
            from repro.telemetry import Telemetry

            self.telemetry = Telemetry(self.engine)
        total = topology.num_storage + topology.num_compute
        if topology.shared_nfs:
            self.fabric: NetworkFabric = NFSFabric(
                self.engine, total, spec.link_bw, server=0, latency=spec.net_latency
            )
        else:
            self.fabric = NetworkFabric(
                self.engine, total, spec.link_bw, spec.net_latency
            )
        self.storage_nodes: List[StorageNode] = [
            StorageNode(self.engine, i, i, storage_specs.get(i, spec))
            for i in range(topology.num_storage)
        ]
        self.compute_nodes: List[ComputeNode] = [
            ComputeNode(
                self.engine,
                j,
                topology.num_storage + j,
                compute_specs.get(j, spec),
                has_local_disk=not topology.shared_nfs,
            )
            for j in range(topology.num_compute)
        ]
        # the devices each reservation holds, built once: a storage node's
        # disk and the (storage, compute) wire, and each joiner's NIC and
        # scratch disk.  Faults scale ``bandwidth`` in place and every
        # reservation reads it then, so the lists are never stale
        self._routes: List[List[List[BandwidthResource]]] = [
            [
                [s.disk] + self.fabric.transfer_resources(s.fabric_id, c.fabric_id)
                for c in self.compute_nodes
            ]
            for s in self.storage_nodes
        ]
        self._ingest: List[List[BandwidthResource]] = [
            [self.fabric.nic(c.fabric_id), c.scratch] if c.has_local_disk else []
            for c in self.compute_nodes
        ]
        self.faults = None
        if faults is not None:
            from repro.faults import FaultInjector, FaultPlan

            if isinstance(faults, str):
                faults = FaultPlan.parse(faults)
            self.faults = FaultInjector(self, faults)
        if self.telemetry is not None:
            self._register_telemetry()

    def _register_telemetry(self) -> None:
        """Map resources to logical nodes and subscribe the hub."""
        tel = self.telemetry
        nodes = tel.resource_nodes
        for s in self.storage_nodes:
            nodes[s.disk.name] = f"storage{s.node_id}"
            nodes[self.fabric.nic(s.fabric_id).name] = f"storage{s.node_id}"
        for c in self.compute_nodes:
            nodes[c.cpu.name] = f"compute{c.node_id}"
            nodes[self.fabric.nic(c.fabric_id).name] = f"compute{c.node_id}"
            if c.has_local_disk:
                nodes[c.scratch.name] = f"compute{c.node_id}"
        tel.watch_engine(self.engine, faults=self.faults is not None)

    # -- shorthand accessors ----------------------------------------------------

    @property
    def num_storage(self) -> int:
        return self.topology.num_storage

    @property
    def num_compute(self) -> int:
        return self.topology.num_compute

    def storage(self, i: int) -> StorageNode:
        return self.storage_nodes[i]

    def joiner(self, j: int) -> ComputeNode:
        return self.compute_nodes[j]

    def spawn(self, gen, name: str = "", contain: tuple = ()) -> Process:
        """Launch a concurrent simulation process on this cluster.

        QES implementations use this for every logical activity they run —
        the per-joiner control loops, and (in the pipelined Indexed Join)
        the per-joiner background transfer processes that overlap
        communication with computation.  The returned :class:`Process` is
        itself an event: yield it to join, or hold it as a handle to an
        in-flight activity.  ``contain`` is forwarded to the engine: an
        uncaught exception of a contained class fails the process event
        instead of propagating (see :class:`~repro.cluster.events.Process`).
        """
        return self.engine.process(gen, name=name, contain=contain)

    # -- composite operations ------------------------------------------------------

    def read_and_send(self, storage: int, compute: int, nbytes: int) -> Event:
        """BDS sub-table service: stream a chunk — or one of Grace Hash's
        freshly-read record batches — from disk over the wire.

        The BDS streams through a read-ahead buffer: the request completes
        when the slowest device finishes (usually the wire), but each
        device is only occupied for its own service time, so a fast disk
        frees up for the next request while the NICs drain.  This yields
        exactly the ``min(Net_bw, readIO_bw · n_s)`` aggregate of the cost
        models without convoying at saturation.

        With a fault plan installed the request may *fail* instead:
        fail-fast (no resources burned) when the node is already dead,
        mid-flight on a node crash, or at completion on a transient fault.
        """
        engine, faults = self.engine, self.faults
        read = faults.check_storage(storage) if faults is not None else None
        if read is None:
            route = self._routes[storage][compute]
            if engine._subscribers:
                engine._emit(
                    "transfer", self.storage_nodes[storage].fabric_id,
                    self.compute_nodes[compute].fabric_id, nbytes,
                )
            read = BandwidthResource.reserve_pipeline(route, nbytes)
            if faults is not None:
                read = faults.guard_transfer(read, storage)
        if engine._subscribers:
            engine._emit("storage_read", read, storage, compute, nbytes)
        return read

    def ingest_write(self, compute: int, nbytes: int) -> Event:
        """Bucket write of a just-received batch by the joiner's QES thread.

        The QES instance is single-threaded: while it writes the batch to
        its scratch disk it cannot drain its NIC, so the write holds the
        node's NIC *and* scratch disk for the write's (disk-paced)
        duration.  This is what makes the Grace Hash cost model's
        ``Transfer + Write`` terms additive per joiner rather than
        pipelined.  In the NFS topology the write routes through the
        shared server instead (no local disk to hold).
        """
        c = self.compute_nodes[compute]
        if not c.has_local_disk:
            return self._nfs_scratch(c, nbytes, write=True)
        return BandwidthResource.reserve_joint_seconds(
            self._ingest[compute], c.write_seconds(nbytes), nbytes
        )

    def scratch_read(self, compute: int, nbytes: int) -> Event:
        """Read bucket data back on compute node ``compute``."""
        c = self.compute_nodes[compute]
        if c.has_local_disk:
            return c.scratch_read(nbytes)
        return self._nfs_scratch(c, nbytes, write=False)

    def _nfs_scratch(self, c: ComputeNode, nbytes: int, write: bool) -> Event:
        server = self.storage_nodes[0]
        spec = server.spec

        def driver():
            if write:
                yield self.fabric.transfer(c.fabric_id, server.fabric_id, nbytes)
                yield server.disk.reserve_at_rate(nbytes, spec.disk_write_bw)
            else:
                yield server.disk.reserve_at_rate(nbytes, spec.disk_read_bw)
                yield self.fabric.transfer(server.fabric_id, c.fabric_id, nbytes)

        return self.engine.process(
            driver(), name=f"nfs_{'write' if write else 'read'} c{c.node_id}"
        )


def paper_cluster(
    num_storage: int = 5,
    num_compute: int = 5,
    spec: MachineSpec = PAPER_MACHINE,
    faults=None,
    tie_break: str = "fifo",
    telemetry: bool = False,
) -> ClusterSim:
    """The Section 6 testbed shape: switched fabric, local scratch disks."""
    return ClusterSim(
        ClusterTopology(num_storage, num_compute),
        spec=spec,
        faults=faults,
        tie_break=tie_break,
        telemetry=telemetry,
    )


def nfs_cluster(
    num_compute: int,
    spec: MachineSpec = PAPER_MACHINE,
    faults=None,
    tie_break: str = "fifo",
    telemetry: bool = False,
) -> ClusterSim:
    """The Figure 9 scenario: one shared NFS server, diskless compute nodes."""
    return ClusterSim(
        ClusterTopology(num_storage=1, num_compute=num_compute, shared_nfs=True),
        spec=spec,
        faults=faults,
        tie_break=tie_break,
        telemetry=telemetry,
    )
