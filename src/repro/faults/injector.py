"""Interpretation of a :class:`FaultPlan` against a live cluster.

The injector owns all fault *mechanism*; the QES implementations own all
recovery *policy*.  Its contract with the cluster layer:

* :meth:`check_storage` — consulted before a transfer reserves resources;
  a request to a node already known dead fails fast (latency only, no
  bandwidth burned) with :class:`StorageNodeDown`.
* :meth:`guard_transfer` — wraps an in-flight transfer event.  When
  nothing can go wrong for this transfer (no pending crash on the serving
  node, zero transient rate) the transfer is returned **unchanged**, which
  is what keeps a zero-fault plan byte-identical to running with no plan
  at all.  Otherwise the guard settles with the transfer, a mid-flight
  node crash (fails at crash time with :class:`StorageNodeDown`), or a
  transient fault at completion (:class:`TransientTransferFault` — the
  attempt burned its full service time before the error surfaced).
* :meth:`register_compute` — a QES registers each per-node worker process;
  when that node's crash fires, the injector interrupts them with
  :class:`ComputeNodeDown` as the cause.

Every fault that fires — crash, degradation onset, transient failure — is
announced, after its state change, as a ``fault`` event on the engine's
channel (:meth:`SimEngine.subscribe`).

Determinism: transient-failure draws are counter-based splitmix64 draws
made at *guard time*; since the simulation itself is deterministic, the
sequence of guard calls — and hence the whole faulty trace — is a pure
function of (workload, plan).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cluster.events import Event, Process
from repro.faults.errors import ComputeNodeDown, StorageNodeDown, TransientTransferFault
from repro.faults.plan import Degradation, FaultPlan, NodeCrash

__all__ = ["FaultInjector"]

#: counter offset separating transfer draws from node-choice draws
_TRANSFER_DRAW_BASE = 1 << 20


class FaultInjector:
    """Injects one :class:`FaultPlan` into one :class:`ClusterSim` run."""

    def __init__(self, cluster, plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.engine = cluster.engine
        #: node ids whose crash has already fired
        self.dead_storage: Set[int] = set()
        self.dead_compute: Set[int] = set()
        #: storage node -> signal event succeeding at its crash instant
        self._storage_crash_events: Dict[int, Event] = {}
        #: compute node -> processes to interrupt when it dies
        self._compute_procs: Dict[int, List[Process]] = {}
        self._draws = 0
        if plan.is_trivial:
            return  # no timers, no guards: byte-identical to faults=None
        choice_counter = 0
        for crash in plan.crashes:
            node = crash.node
            if node is None:
                n = (
                    cluster.num_storage
                    if crash.kind == "storage"
                    else cluster.num_compute
                )
                node = plan.choose(choice_counter, n)
            choice_counter += 1
            self._validate_node(crash.kind, node)
            if crash.kind == "storage":
                if node in self._storage_crash_events:
                    raise ValueError(f"storage node {node} crashes twice in plan")
                self._storage_crash_events[node] = self.engine.event()
            self.engine.process(
                self._crash_driver(crash, node), name=f"fault-{crash.kind}-crash{node}"
            )
        for deg in plan.degradations:
            node = deg.node
            if node is None:
                node = plan.choose(choice_counter, cluster.num_storage)
            choice_counter += 1
            self._validate_node("storage", node)
            self.engine.process(
                self._degradation_driver(deg, node),
                name=f"fault-{deg.kind}-degrade{node}",
            )

    def _validate_node(self, kind: str, node: int) -> None:
        n = self.cluster.num_storage if kind == "storage" else self.cluster.num_compute
        if not (0 <= node < n):
            raise ValueError(f"no {kind} node {node} in this cluster")

    # -- timed drivers ----------------------------------------------------------

    def _crash_driver(self, crash: NodeCrash, node: int):
        yield self.engine.timeout(crash.at)
        if crash.kind == "storage":
            self.dead_storage.add(node)
            self.engine._emit("fault", "storage-crash", node, None)
            self._storage_crash_events[node].succeed(node)
        else:
            self.dead_compute.add(node)
            self.engine._emit("fault", "compute-crash", node, None)
            for proc in self._compute_procs.get(node, []):
                proc.interrupt(ComputeNodeDown(node))

    def _degradation_driver(self, deg: Degradation, node: int):
        yield self.engine.timeout(deg.at)
        if deg.kind == "disk":
            resource = self.cluster.storage_nodes[node].disk
        else:
            resource = self.cluster.fabric.nic(
                self.cluster.storage_nodes[node].fabric_id
            )
        # scales service times of *subsequent* reservations; requests
        # already reserved keep their committed completion times
        resource.bandwidth *= deg.factor
        self.engine._emit("fault", f"{deg.kind}-degradation", node, deg.factor)

    # -- queries ----------------------------------------------------------------

    def storage_is_dead(self, node: int) -> bool:
        return node in self.dead_storage

    def compute_is_dead(self, node: int) -> bool:
        return node in self.dead_compute

    def check_storage(self, node: int) -> Optional[Event]:
        """Fail-fast event when ``node`` is already known dead, else None.

        Consulted *before* resources are reserved, so requests to a dead
        node burn no disk or NIC time.
        """
        if node in self.dead_storage:
            return self.engine.fail_after(0.0, StorageNodeDown(node))
        return None

    # -- transfer guarding -------------------------------------------------------

    def guard_transfer(self, transfer: Event, node: int) -> Event:
        """Wrap an in-flight transfer from storage ``node`` with this
        plan's failure modes; pass-through when none apply."""
        fail_transient = False
        if self.plan.transfer_failure_rate > 0.0:
            draw = self.plan.draw(_TRANSFER_DRAW_BASE + self._draws)
            self._draws += 1
            fail_transient = draw < self.plan.transfer_failure_rate
        crash_ev = self._storage_crash_events.get(node)
        crash_pending = crash_ev is not None and not crash_ev.triggered
        if not fail_transient and not crash_pending:
            return transfer
        out = self.engine.event()

        def on_transfer(ev: Event) -> None:
            if out.triggered:
                return  # the crash signal won the race mid-transfer
            if fail_transient:
                self.engine._emit("fault", "transient-fault", node, None)
                out.fail(TransientTransferFault(node))
            else:
                out.succeed(ev.value)

        def on_crash(ev: Event) -> None:
            if out.triggered:
                return  # transfer completed at this same instant first
            out.fail(StorageNodeDown(node))

        transfer.callbacks.append(on_transfer)
        if crash_pending:
            crash_ev.callbacks.append(on_crash)
        return out

    # -- compute-node registration -----------------------------------------------

    def register_compute(self, node: int, proc: Process) -> None:
        """Register a worker process to be killed if ``node`` crashes.

        If the node is already dead the process is interrupted immediately
        (spawning work on a dead node fails at once).
        """
        if node in self.dead_compute:
            proc.interrupt(ComputeNodeDown(node))
            return
        self._compute_procs.setdefault(node, []).append(proc)
