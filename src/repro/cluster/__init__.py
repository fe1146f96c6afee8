"""Simulated coupled compute–storage cluster.

The paper evaluates on "hardware configurations with coupled storage and
compute clusters": storage nodes with local disks holding the chunks,
compute nodes with memory for caching and scratch disks for out-of-core
operation, joined by a switched network (their testbed: 10 PIII-933 nodes,
512 MB RAM, IDE disks, switched Fast Ethernet).

This package replaces that testbed with a deterministic discrete-event
simulator:

* :mod:`~repro.cluster.events` — a minimal process-based event engine
  (generator coroutines yielding events, a time-ordered queue).
* :mod:`~repro.cluster.resources` — FIFO bandwidth resources using a
  *reservation calculus*: a request arriving at ``t`` for ``s`` seconds of
  service completes at ``max(t, busy_until) + s``.  This is exactly
  non-preemptive FIFO queueing, costs O(1) per request, and lets multi-GB
  experiments run in milliseconds of wall time.
* :mod:`~repro.cluster.network` — per-node NICs behind a non-blocking
  switch, and the shared-NFS fabric.
* :mod:`~repro.cluster.nodes` — machine specs (bandwidths, per-tuple hash
  costs, memory) and storage/compute node bundles.
* :mod:`~repro.cluster.cluster` — :class:`ClusterSim`, assembling engine,
  nodes and fabric, with the paper-testbed presets.

Nothing here records what it did: reservations, transfers, storage reads
and faults are announced on :meth:`SimEngine.subscribe`'s channel, where a
``telemetry=True`` cluster's hub records each reservation as a resource
span (drawn by :func:`repro.telemetry.export.gantt`).

Every byte a join algorithm moves and every hash operation it performs is
charged against these resources, so end-to-end "execution times" emerge
from contention rather than being computed from a formula — that is what
makes comparing them against the paper's closed-form cost models a real
validation.
"""

from repro.cluster.cluster import ClusterSim, ClusterTopology, nfs_cluster, paper_cluster
from repro.cluster.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimEngine,
    SimulationError,
    Timeout,
)
from repro.cluster.network import NetworkFabric, NFSFabric
from repro.cluster.nodes import ComputeNode, MachineSpec, StorageNode, PAPER_MACHINE
from repro.cluster.resources import BandwidthResource

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthResource",
    "ClusterSim",
    "ClusterTopology",
    "ComputeNode",
    "Event",
    "Interrupt",
    "MachineSpec",
    "NFSFabric",
    "NetworkFabric",
    "PAPER_MACHINE",
    "Process",
    "SimEngine",
    "SimulationError",
    "StorageNode",
    "Timeout",
    "nfs_cluster",
    "paper_cluster",
]
