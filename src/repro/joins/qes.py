"""The Query Execution System as one execution (Section 4).

"Each compute node runs a QES instance that receives a pair of sub-table
ids to join": a QES object here *is* one distributed execution — its
configuration, its supervising driver process, every worker it spawned,
its report and its whole-run telemetry spans.  :class:`QES` owns what
every execution shares (the lifecycle: :meth:`~QES.run`, :meth:`~QES.begin`,
:meth:`~QES.abort`, :meth:`~QES.finish`; one sub-table to one compute node
with recovery); :class:`~repro.joins.indexed_join.IndexedJoinQES`,
:class:`~repro.joins.grace_hash.GraceHashQES` and :class:`~repro.joins.
scan.ScanQES` add what they execute over, the driver and worker
generators, and the report fill-in.  Workers read per-execution state off
the instance; their signatures carry only what is per worker, per pair or
per chunk.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cluster.cluster import ClusterSim
from repro.datamodel.subtable import SubTable
from repro.faults.errors import (
    FaultError,
    StorageNodeDown,
    TransientTransferFault,
    UnrecoverableFault,
)
from repro.joins.report import ExecutionReport, PhaseBreakdown
from repro.metadata.service import MetaDataService
from repro.services.bds import SubTableProvider

__all__ = ["QES"]


class QES:
    """One execution on a simulated cluster; single-shot.

    Parameters shared by every QES:

    cluster:
        The simulated cluster to run on.
    metadata:
        MetaData Service holding the chunk catalogs of the tables read.
    provider:
        Sub-table provider (functional or stub).
    sanitizer:
        A :class:`repro.analysis.sanitizer.RunSanitizer` to install
        invariant hooks into this execution's engine, caches and
        transfers (``--sanitize`` runs).  ``None`` (the default) adds no
        instrumentation.  Under a query server the sanitizer belongs to
        the *server* (one engine, one cluster, shared caches), so
        per-query executions pass ``None`` here.
    contain_faults:
        When True (the query server's mode), every process this QES
        spawns is contained: a fault that exhausts recovery fails the
        driver event instead of propagating out of the shared engine.

    After :meth:`begin`: ``process`` is the supervising driver (an event
    other processes can wait on), ``children`` every worker process it
    spawned, ``report`` the :class:`ExecutionReport` being filled,
    ``tel`` the cluster's telemetry hub (or ``None``) and ``spans`` the
    spans opened for the run as a whole, the ``query`` span first — no
    process scope closes them.
    """

    #: report / ``query``-span label and the driver's default process name
    algorithm: str
    driver_name: str
    #: one Caching Service per compute node, set by :meth:`_start` at the
    #: latest by the executions that cache; ``None`` for those that do not
    #: (Grace Hash, a standalone scan)
    caches: Optional[List] = None

    def __init__(
        self,
        cluster: ClusterSim,
        metadata: MetaDataService,
        provider: SubTableProvider,
        sanitizer=None,
        contain_faults: bool = False,
    ):
        self.cluster = cluster
        self.metadata = metadata
        self.provider = provider
        self.sanitizer = sanitizer
        self.contain_faults = contain_faults
        self._contain = (FaultError, UnrecoverableFault) if contain_faults else ()
        self.process = None
        self._finished = False

    # -- lifecycle -----------------------------------------------------------------

    def run(self) -> ExecutionReport:
        """Execute to completion on this QES's engine (single-query mode):
        exactly :meth:`begin` + drain + :meth:`finish`."""
        self.begin()
        self.cluster.engine.drive(self.process)
        return self.finish()

    def begin(self, name: Optional[str] = None) -> "QES":
        """Start the execution without draining the engine.

        Spawns the supervising driver as an ordinary simulated process
        and returns ``self``; the caller (a query server admitting many
        executions onto one engine) waits on ``process`` and then calls
        :meth:`finish` for the report.  A QES is one execution: a second
        ``begin`` raises.
        """
        if self.process is not None:
            raise RuntimeError("begin() called twice: a QES is one execution")
        cluster = self.cluster
        n_j = cluster.num_compute
        functional = self.provider.functional
        self.report = ExecutionReport(
            algorithm=self.algorithm,
            functional=functional,
            per_joiner=[PhaseBreakdown() for _ in range(n_j)],
        )
        #: result tuples per joiner (functional runs only)
        self.results: Optional[List[List[SubTable]]] = (
            [[] for _ in range(n_j)] if functional else None
        )
        #: every process this run spawns, so a server can abort the whole
        #: tree (driver first, then workers) when a deadline expires
        self.children: List = []
        if self.sanitizer is not None:
            self.sanitizer.attach_engine(cluster.engine)
        tel = self.tel = cluster.telemetry
        self.spans: List = []
        if tel is not None:
            # catalog traffic is counted by the QES that makes it, on its
            # own hub: the MetaData Service is shared by every run
            tel.metrics.counter("metadata.chunk_lookups")
            tel.metrics.counter("metadata.range_queries")
            self.spans.append(
                tel.recorder.begin(
                    "query",
                    category="query",
                    node="global",
                    track="main",
                    algorithm=self.algorithm,
                    functional=functional,
                    **self._query_attrs(),
                )
            )
        self._start()
        # snapshot so the report carries this run's deltas, not the caches'
        # lifetime counters (a warmed cache has history from earlier runs)
        self._stats_before = [c.stats.snapshot() for c in self.caches or ()]
        if self.sanitizer is not None:
            for j, c in enumerate(self.caches or ()):
                self.sanitizer.attach_cache(c, name=f"joiner{j}")
        self.process = cluster.engine.process(
            self._driver(), name=name or self.driver_name, contain=self._contain
        )
        return self

    def abort(self, cause=None) -> None:
        """Kill the whole execution tree at the current simulated instant.

        Interrupts the driver first (so it dies before it can observe —
        and misread as a node crash, or try to reassign — its workers'
        deaths), then every spawned worker.  Each process unwinds its pin
        scopes as the interrupt propagates; interrupting already-finished
        processes is a no-op.  The server's deadline path calls this.
        """
        self.process.interrupt(cause)
        for proc in self.children:
            proc.interrupt(cause)
        if self.tel is not None:
            # nothing will finish() an aborted run, and its driver dies
            # before any barrier: the whole-run spans end here
            error = "Interrupt" if cause is None else type(cause).__name__
            for span in self.spans:
                self.tel.recorder.abandon(span, error)

    def finish(self) -> ExecutionReport:
        """Assemble and return the report (driver must have completed)."""
        if self.process is None or not self.process.triggered:
            raise RuntimeError(
                "finish() called before the execution's driver completed"
            )
        report = self.report
        if self._finished:
            return report
        self._finished = True
        report.results = self.results
        report.cache_stats = [
            c.stats.since(before)
            for c, before in zip(self.caches or (), self._stats_before)
        ]
        self._fill()
        tel = self.tel
        if tel is not None:
            qspan = self.spans[0]
            tel.recorder.finish(qspan, at=report.total_time)
            from repro.telemetry.critical_path import compute_critical_path

            report.critical_path = compute_critical_path(tel.recorder, qspan)
            report.telemetry = tel
        if self.sanitizer is not None:
            self.sanitizer.after_run(self.cluster.engine, report)
        return report

    # -- what the algorithms build on ----------------------------------------------

    def _spawn(self, gen, name: str, compute: Optional[int] = None):
        """Start a worker process of this execution: contained like the
        driver, recorded in ``children`` and — when it runs on compute
        node ``compute`` — registered to die with that node."""
        proc = self.cluster.spawn(gen, name=name, contain=self._contain)
        self.children.append(proc)
        if compute is not None and self.cluster.faults is not None:
            self.cluster.faults.register_compute(compute, proc)
        return proc

    def _charge_cpu(self, phase: str, j: int, records: int, track: str,
                    **attrs: Any):
        """Charge joiner ``j`` the hash ``"build"`` or ``"probe"`` of
        ``records`` records in simulated time: the wait into the joiner's
        :class:`PhaseBreakdown`, a span of the phase's category, the
        report's kernel counter and the records metric — credited only
        once the charge has been waited out.  Generator."""
        tel, engine = self.tel, self.cluster.engine
        node = self.cluster.joiner(j)
        build = phase == "build"
        seconds = records * (node.spec.build_cost if build else node.spec.lookup_cost)
        t0 = engine.now
        if tel is None:
            yield node.cpu.reserve_time(seconds)
        else:
            # per pair on the joiner loop: only a traced run builds span
            # arguments (see ``maybe_span``)
            with tel.recorder.span(
                phase, category="cpu-build" if build else "cpu-probe",
                node=f"compute{j}", track=track, records=records, **attrs,
            ):
                yield node.cpu.reserve_time(seconds)
        self._credit_cpu(build, j, records, engine.now - t0)

    def _credit_cpu(self, build: bool, j: int, records: int, waited: float) -> None:
        """Credit a charge waited out: ``waited`` seconds to joiner ``j``'s
        build or probe breakdown field, ``records`` to the kernel counter
        and (traced) to the records metric.  The one copy of the credit,
        shared by :meth:`_charge_cpu` and the Indexed Join's untraced
        probe, which charges without a generator."""
        pb, kernel = self.report.per_joiner[j], self.report.kernel
        if build:
            pb.cpu_build += waited
            kernel.builds += records
        else:
            pb.cpu_lookup += waited
            kernel.probes += records
        if self.tel is not None:
            self.tel.metrics.counter(
                "op.hash-build.records" if build else "op.probe.records"
            ).inc(records)

    def _transfer_with_recovery(self, j: int, desc, inflight, link_span):
        """Move one sub-table to compute node ``j``, surviving transient
        faults and storage-node crashes.  Generator; returns the storage
        node that ultimately served the bytes.  The one fetch-with-recovery:
        the Indexed Join's ``_fetch`` and the scan both miss into it.

        Replicas are tried primary-first.  On each node, transient faults
        are retried with exponential backoff up to ``plan.max_attempts``;
        a node crash invalidates the entries ``self.caches[j]`` holds from
        that node (a standalone scan has no caches) and fails over to the
        next replica.  Without fault injection the loop collapses to the
        single primary transfer of the fault-free code path — same events,
        same accounting.  Raises :class:`UnrecoverableFault` when no
        replica can serve the chunk.
        """
        cluster, tel, report = self.cluster, self.tel, self.report
        injector = cluster.faults
        caches = self.caches
        pb = report.per_joiner[j]
        rec = report.recovery
        size = desc.size  # a property: read once per transfer
        last_node = None
        for ref in desc.all_refs:
            node = last_node = ref.storage_node
            attempt = 0
            while True:
                attempt += 1
                t0 = cluster.engine.now
                transfer = cluster.read_and_send(node, j, size)
                tspan = None
                if tel is not None:
                    tspan = tel.recorder.begin(
                        "transfer",
                        category="transfer",
                        node=f"storage{node}",
                        track=f"serve-compute{j}",
                        chunk=str(desc.id),
                        bytes=size,
                        attempt=attempt,
                    )
                    if link_span is not None:
                        tel.recorder.link(tspan, link_span)
                if inflight is not None:
                    inflight[desc.id] = transfer
                try:
                    yield transfer
                except TransientTransferFault:
                    if tspan is not None:
                        tspan.attrs["error"] = "TransientTransferFault"
                        tel.recorder.finish(tspan)
                        tspan = None
                    dt = cluster.engine.now - t0
                    pb.stall += dt
                    rec.retries += 1
                    rec.wasted_seconds += dt
                    rec.wasted_bytes += size
                    plan = injector.plan
                    if attempt >= plan.max_attempts:
                        break  # give up on this replica, try the next
                    backoff = plan.retry_base * (2 ** (attempt - 1))
                    if backoff > 0:
                        yield cluster.engine.timeout(backoff)
                        pb.stall += backoff
                        rec.wasted_seconds += backoff
                    continue
                except StorageNodeDown:
                    if tspan is not None:
                        tspan.attrs["error"] = "StorageNodeDown"
                        tel.recorder.finish(tspan)
                        tspan = None
                    dt = cluster.engine.now - t0
                    pb.stall += dt
                    rec.failovers += 1
                    rec.wasted_seconds += dt
                    if caches is not None:
                        rec.cache_invalidations += caches[j].invalidate_from(node)
                    break  # fail over to the next replica
                finally:
                    if inflight is not None:
                        inflight.pop(desc.id, None)
                    if tspan is not None and tspan.end is None:
                        tel.recorder.finish(tspan)
                dt = cluster.engine.now - t0
                pb.transfer += dt
                pb.stall += dt  # the control loop waits out every byte
                report.bytes_from_storage += size
                if tel is not None:
                    tel.metrics.counter("op.transfer.bytes").inc(size)
                return node
        raise UnrecoverableFault(
            "no surviving replica for chunk", chunk=desc.id, node=last_node
        )

    # -- what each algorithm supplies ------------------------------------------------

    def _query_attrs(self) -> Dict[str, Any]:
        """The algorithm's own attributes on the ``query`` span."""
        raise NotImplementedError

    def _start(self) -> None:
        """Set up per-execution state, open the algorithm's own whole-run
        spans and spawn whatever starts ahead of the driver."""
        raise NotImplementedError

    def _driver(self):
        """The supervising generator; sets ``report.total_time`` last."""
        raise NotImplementedError

    def _fill(self) -> None:
        """The algorithm's report fill-in, run once by :meth:`finish`."""
        raise NotImplementedError
