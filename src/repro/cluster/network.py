"""Network fabrics: switched Ethernet and shared-NFS topologies.

Two fabrics cover the paper's experiments:

* :class:`NetworkFabric` — the main testbed: every node has a
  full-duplexish NIC at the link rate behind a non-blocking switch; a
  transfer occupies the sender's NIC and the receiver's NIC for its
  duration.  Aggregate storage→compute bandwidth therefore emerges as
  ``min(n_s, n_j) · link_bw`` when all flows are active — the paper's
  ``Net_bw(n_s, n_j)``.
* :class:`NFSFabric` — the Figure 9 scenario: one NFS server carries *all*
  I/O.  Every transfer (and every scratch read/write the compute nodes
  perform, since "compute nodes are assumed to not have local disks")
  funnels through the server's NIC and disk.

Fabric node ids are plain integers in a single namespace; the cluster
assembly layer maps storage/compute nodes onto them.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.events import SimEngine, Timeout
from repro.cluster.resources import BandwidthResource

__all__ = ["NetworkFabric", "NFSFabric"]


class NetworkFabric:
    """Per-node NICs at one link rate; moves ``nbytes`` from node ``src``
    to node ``dst``, occupying both NICs for the transfer's duration."""

    def __init__(
        self, engine: SimEngine, num_nodes: int, link_bandwidth: float, latency: float
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.engine = engine
        self._nics: Dict[int, BandwidthResource] = {
            n: BandwidthResource(engine, link_bandwidth, latency=latency, name=f"nic{n}")
            for n in range(num_nodes)
        }

    def transfer(self, src: int, dst: int, nbytes: int) -> Timeout:
        if self.engine._subscribers:
            self.engine._emit("transfer", src, dst, nbytes)
        resources = self.transfer_resources(src, dst)
        if not resources:
            return self.engine.timeout(0.0)
        return BandwidthResource.reserve_joint(resources, nbytes)

    def nic(self, node: int) -> BandwidthResource:
        """The NIC resource of ``node`` (for reports)."""
        try:
            return self._nics[node]
        except KeyError:
            raise KeyError(f"no node {node} on this fabric") from None

    def transfer_resources(self, src: int, dst: int) -> "list[BandwidthResource]":
        """The serial resources a ``src → dst`` transfer occupies.

        Used by callers that pipeline a transfer with other devices (e.g. a
        streaming chunk read: disk + NICs as one joint reservation).
        Loopback transfers occupy nothing (same process space).
        """
        return [] if src == dst else [self.nic(src), self.nic(dst)]


class NFSFabric(NetworkFabric):
    """All traffic flows through a single NFS server node.

    The server (node id ``server``) owns the only disk in the system; its
    NIC and disk serialise every remote operation.  Client nodes still have
    NICs (a transfer occupies client NIC + server NIC), but per Figure 9
    the shared server is the bottleneck that makes Grace Hash degrade as
    compute nodes are added.
    """

    def __init__(
        self,
        engine: SimEngine,
        num_nodes: int,
        link_bandwidth: float,
        server: int = 0,
        latency: float = 0.0,
    ):
        super().__init__(engine, num_nodes, link_bandwidth, latency)
        if not (0 <= server < num_nodes):
            raise ValueError(f"server id {server} out of range")
        self.server = server
