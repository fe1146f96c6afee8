"""Machine specifications and node bundles.

:class:`MachineSpec` collects the system parameters of the paper's Table 1
(`readIO_bw`, `writeIO_bw`, link bandwidth behind `Net_bw`, α_build,
α_lookup) plus memory size and the computing-power factor ``F`` of Section
6.2 (α = γ/F: doubling ``F`` halves both per-tuple hash costs).

:data:`PAPER_MACHINE` mirrors the testbed: PIII 933 MHz, 512 MB RAM, IDE
disks (~25 MB/s read, ~20 MB/s write), switched Fast Ethernet
(100 Mbit/s ≈ 12.5 MB/s per link).  The per-tuple hash constants are set to
Pentium-III-era magnitudes and are also what the analytic cost models use,
so simulator and model are parameterised identically — exactly like
measuring α on the real machine and plugging it into the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.events import SimEngine
from repro.cluster.resources import BandwidthResource

__all__ = ["MachineSpec", "StorageNode", "ComputeNode", "PAPER_MACHINE"]


@dataclass(frozen=True)
class MachineSpec:
    """Per-node hardware parameters (uniform across the cluster)."""

    #: Disk read bandwidth, bytes/s (``readIO_bw``).
    disk_read_bw: float = 25e6
    #: Disk write bandwidth, bytes/s (``writeIO_bw``).
    disk_write_bw: float = 20e6
    #: NIC link bandwidth, bytes/s (component of ``Net_bw``).
    link_bw: float = 12.5e6
    #: Local memory available for caching / in-memory hash join, bytes.
    memory_bytes: int = 512 * 2**20
    #: Hash-table insert cost, seconds/tuple at F=1 (``α_build = γ1/F``).
    alpha_build: float = 8e-7
    #: Hash-table probe cost, seconds/tuple at F=1 (``α_lookup = γ2/F``).
    alpha_lookup: float = 6e-7
    #: Computing-power factor ``F`` (Section 6.2); relative to the PIII.
    cpu_factor: float = 1.0
    #: Fixed per-disk-request overhead (seek + request setup), seconds.
    disk_latency: float = 0.0
    #: Fixed per-message network overhead, seconds.
    net_latency: float = 0.0

    def __post_init__(self) -> None:
        # NaN passes every ``<=``/``<`` test, and an infinite rate, factor
        # or cost makes simulated times zero or infinite
        for name in ("disk_read_bw", "disk_write_bw", "link_bw", "cpu_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("alpha_build", "alpha_lookup", "disk_latency", "net_latency"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")
        if not self.memory_bytes > 0:
            raise ValueError("memory_bytes must be positive")

    # -- effective CPU costs ----------------------------------------------------

    @property
    def build_cost(self) -> float:
        """Effective seconds per hash-table insert at this ``F``."""
        return self.alpha_build / self.cpu_factor

    @property
    def lookup_cost(self) -> float:
        """Effective seconds per hash-table probe at this ``F``."""
        return self.alpha_lookup / self.cpu_factor

    def with_cpu_factor(self, f: float) -> "MachineSpec":
        """The same machine scaled to computing power ``F = f`` (Figure 8)."""
        return replace(self, cpu_factor=f)


#: The paper's testbed node.
PAPER_MACHINE = MachineSpec()


class StorageNode:
    """A storage-cluster node: a disk full of chunks behind a NIC."""

    def __init__(self, engine: SimEngine, node_id: int, fabric_id: int, spec: MachineSpec):
        self.node_id = node_id
        self.fabric_id = fabric_id
        self.spec = spec
        self.disk = BandwidthResource(
            engine, spec.disk_read_bw, latency=spec.disk_latency, name=f"s{node_id}.disk"
        )


class ComputeNode:
    """A compute-cluster node: CPU, memory, and (usually) a scratch disk.

    Bucket reads (:meth:`scratch_read`) and writes (``ClusterSim.ingest_write``,
    timed by :meth:`write_seconds`) go through one serial device resource,
    :attr:`scratch` — the IDE disks of the testbed do not overlap reads and
    writes.  We model the device as one FIFO server and charge reads at
    ``disk_read_bw``, writes at ``disk_write_bw``.
    """

    def __init__(
        self,
        engine: SimEngine,
        node_id: int,
        fabric_id: int,
        spec: MachineSpec,
        has_local_disk: bool = True,
    ):
        self.node_id = node_id
        self.fabric_id = fabric_id
        self.spec = spec
        self.has_local_disk = has_local_disk
        self.cpu = BandwidthResource(engine, 1.0, name=f"c{node_id}.cpu")  # seconds-based
        self._scratch: Optional[BandwidthResource] = None
        if has_local_disk:
            # one serial device; per-request rate chosen by direction
            self._scratch = BandwidthResource(
                engine, spec.disk_write_bw, latency=spec.disk_latency, name=f"c{node_id}.scratch"
            )

    @property
    def memory_bytes(self) -> int:
        return self.spec.memory_bytes

    @property
    def scratch(self) -> BandwidthResource:
        if self._scratch is None:
            raise RuntimeError(f"compute node {self.node_id} has no local disk")
        return self._scratch

    def write_seconds(self, nbytes: int) -> float:
        """Service time of an ``nbytes`` write on the local scratch disk."""
        return self.spec.disk_latency + nbytes / self.spec.disk_write_bw

    def scratch_read(self, nbytes: int):
        """Reserve a bucket read on the local scratch disk."""
        return self.scratch.reserve_at_rate(nbytes, self.spec.disk_read_bw)
