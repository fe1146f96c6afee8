"""The multi-tenant query server: concurrent streams on one simulated cluster.

The paper's object-relational view server is a *service*: many clients
hold derived data sources open against the same deployment and issue
queries whenever they like.  Everything before this module executes one
query on a private cluster; :class:`QueryServer` runs a whole seeded
arrival stream (:mod:`repro.workloads.arrivals`) inside a single
:class:`~repro.cluster.events.SimEngine`:

* every arrival is planned on submission (QPS cost models) and parked
  in an admission queue;
* an admission controller (:mod:`repro.server.admission`) releases
  queries into a bounded pool of execution slots — FIFO,
  shortest-predicted-first, or per-tenant fair share;
* admitted queries execute concurrently on the shared cluster: range
  scans stream chunks to a compute node, joins run the real
  :class:`~repro.joins.indexed_join.IndexedJoinQES` /
  :class:`~repro.joins.grace_hash.GraceHashQES` that
  :func:`~repro.core.engine.view_qes` builds for a derived data source,
  via their ``begin`` / ``finish`` handles;
* one :class:`~repro.services.cache.CachingService` per compute node is
  shared by *all* in-flight queries (each sees it through a
  :class:`~repro.services.cache.QueryCacheView` for exact per-query stat
  attribution), so a sub-table one query transferred is a hit for the
  next — the cross-query role Section 4 assigns the Caching Service.

Serving is *resilient* (:mod:`repro.server.resilience`): a fault plan
can crash nodes mid-stream (``faults=``), tenants can carry per-query
SLO deadlines, the admission queue can be bounded with load shedding,
and queries killed by faults are retried with seeded backoff — every
submitted query reaches exactly one terminal disposition (``completed |
deadline_exceeded | shed | failed``), and the
server quiesces with zero leaked slots or cache pins no matter what the
fault plan did.

Determinism: the workload is a pure function of ``(tenants, seed)``, all
query parameters are counter-based draws on per-query seeds, and the
admission policies are deterministic — so a served workload replays
byte-identically, and its semantic outcome must survive a reversed
same-instant tie-break (:meth:`ServerReport.digest`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterSim, ClusterTopology
from repro.cluster.events import Event, Interrupt, SimulationError
from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.core.engine import count_result, view_qes
from repro.core.planner import QueryPlanningService
from repro.faults.errors import FaultError, UnrecoverableFault
from repro.joins.indexed_join import IndexedJoinQES, JoinBuffer
from repro.joins.qes import QES
from repro.joins.report import ExecutionReport
from repro.joins.scan import ScanQES
from repro.server.admission import make_admission_policy
from repro.server.observatory import ObservabilityConfig, ServeObservatory
from repro.server.queries import PlannedQuery, build_queries
from repro.server.resilience import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    DISPOSITIONS,
    FAILED,
    SHED,
    QueryAborted,
    QueryShed,
    ResilienceConfig,
)
from repro.services.cache import CachingService, QueryCacheView, make_policy
from repro.telemetry.latency import LatencyTracker, goodput
from repro.workloads.arrivals import QueryArrival
from repro.workloads.oilres import OilReservoirDataset

#: Arrivals planned together (:func:`build_queries`): one R-tree walk per
#: table, one pair mask and one labelling pass per block.  Plans wait at
#: most a block ahead of their arrival, so memory stays flat in serve
#: length.
_PLAN_BLOCK = 64

__all__ = [
    "QueryRecord",
    "QueryServer",
    "ServerReport",
    "SerialBaseline",
    "check_shadow_serve",
    "run_serial_baseline",
]


class QueuedQuery:
    """Admission-queue bookkeeping for one planned query."""

    __slots__ = ("planned", "submitted_at", "admitted", "admitted_at")

    def __init__(self, planned: PlannedQuery, submitted_at: float, admitted: Event):
        self.planned = planned
        self.submitted_at = submitted_at
        #: signalled by the dispatcher when a slot is granted (or *failed*
        #: with :class:`QueryShed` when shedding evicts the waiting entry)
        self.admitted = admitted
        self.admitted_at: Optional[float] = None

    @property
    def qid(self) -> int:
        return self.planned.qid

    @property
    def tenant(self) -> str:
        return self.planned.tenant

    @property
    def predicted_time(self) -> float:
        return self.planned.predicted_time


@dataclass(frozen=True)
class QueryRecord:
    """One terminal query, as the server reports it.

    ``disposition`` says how the query ended (``completed`` /
    ``deadline_exceeded`` / ``shed`` / ``failed``); ``admitted_at`` is
    ``None`` for queries that never held a slot (shed, or expired while
    queued).  ``bytes_from_storage`` counts every byte the query pulled,
    including bytes wasted by attempts a fault killed.
    """

    qid: int
    tenant: str
    kind: str
    algorithm: str
    arrival_at: float
    admitted_at: Optional[float]
    finished_at: float
    predicted_time: float
    bytes_from_storage: int
    pairs_joined: int
    cache_hits: int
    cache_misses: int
    #: record count of the assembled answer; ``None`` on model-only runs
    #: and on every non-completed disposition.  A functional Indexed
    #: Join's count is filled in when the serve's join buffer is flushed,
    #: after the query completed: the record a ``terminal`` event carries
    #: still holds ``None`` there
    result_records: Optional[int]
    disposition: str = COMPLETED
    #: server-level re-executions after fault kills (not QES-internal
    #: transfer retries, which the recovery telemetry counts)
    retries: int = 0
    #: terse reason for a non-completed disposition, ``None`` otherwise
    failure: Optional[str] = None

    @property
    def queue_wait(self) -> float:
        # The arrival source sleeps ``at - now`` and ``now + (at - now)``
        # can round one ulp below ``at``: a query admitted (or shed) in the
        # instant it was delivered waited zero seconds, not minus one ulp.
        if self.admitted_at is None:
            # never admitted: it waited from arrival to its terminal point
            return max(0.0, self.finished_at - self.arrival_at)
        return max(0.0, self.admitted_at - self.arrival_at)

    @property
    def exec_time(self) -> float:
        if self.admitted_at is None:
            return 0.0
        return self.finished_at - self.admitted_at

    @property
    def latency(self) -> float:
        return max(0.0, self.finished_at - self.arrival_at)

    def to_payload(self) -> Dict[str, object]:
        return {
            "qid": self.qid,
            "tenant": self.tenant,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "arrival_at": self.arrival_at,
            "admitted_at": self.admitted_at,
            "finished_at": self.finished_at,
            "queue_wait": self.queue_wait,
            "exec_time": self.exec_time,
            "latency": self.latency,
            "predicted_time": self.predicted_time,
            "bytes_from_storage": self.bytes_from_storage,
            "pairs_joined": self.pairs_joined,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "result_records": self.result_records,
            "disposition": self.disposition,
            "retries": self.retries,
            "failure": self.failure,
        }


@dataclass
class ServerReport:
    """Everything one served workload produced."""

    policy: str
    slots: int
    makespan: float
    records: List[QueryRecord]
    #: qids in the order the dispatcher granted slots
    admission_order: List[int]
    #: per-tenant exact latency stats over *completed* queries only —
    #: shed/failed/expired queries never poison the percentiles
    tenant_latency: Dict[str, Dict[str, float]]
    #: per-tenant exact queue-wait stats (completed queries)
    tenant_queue_wait: Dict[str, Dict[str, float]]
    #: lifetime counters of each compute node's shared cache
    cache_per_node: List[Dict[str, float]]
    bytes_from_storage: int = 0
    #: per-tenant terminal disposition counts
    tenant_dispositions: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: latency stats keyed ``tenant/disposition`` (every disposition, so
    #: "how long did shed queries sit before eviction" is answerable)
    disposition_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: observability section (timeseries/SLO/alerts/oplog summary) when
    #: the server ran with ``observe`` enabled, else ``None``; excluded
    #: from :meth:`digest` by construction — observation never moves the
    #: semantic outcome
    observability: Optional[Dict[str, object]] = None

    @property
    def cache_hits(self) -> int:
        return int(sum(c["hits"] for c in self.cache_per_node))

    @property
    def cache_misses(self) -> int:
        return int(sum(c["misses"] for c in self.cache_per_node))

    @property
    def cache_hit_rate(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0

    @property
    def disposition_counts(self) -> Dict[str, int]:
        """Workload-wide disposition totals (every disposition a key)."""
        totals = {d: 0 for d in DISPOSITIONS}
        for tenant in sorted(self.tenant_dispositions):
            for disp, n in sorted(self.tenant_dispositions[tenant].items()):
                totals[disp] = totals.get(disp, 0) + n
        return totals

    @property
    def completed_queries(self) -> int:
        return self.disposition_counts[COMPLETED]

    @property
    def goodput(self) -> float:
        """Completed queries per simulated second of the served makespan."""
        return goodput(self.completed_queries, self.makespan)

    def to_payload(self) -> Dict[str, object]:
        """Deterministic JSON-ready dump (records sorted by qid)."""
        payload: Dict[str, object] = {
            "policy": self.policy,
            "slots": self.slots,
            "makespan_s": self.makespan,
            "num_queries": len(self.records),
            "admission_order": list(self.admission_order),
            "bytes_from_storage": self.bytes_from_storage,
            "goodput_qps": self.goodput,
            "dispositions": {
                "totals": self.disposition_counts,
                "per_tenant": self.tenant_dispositions,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
                "per_node": self.cache_per_node,
            },
            "tenants": {
                "latency": self.tenant_latency,
                "queue_wait": self.tenant_queue_wait,
                "disposition_latency": self.disposition_latency,
            },
            "queries": [r.to_payload() for r in self.records],
        }
        if self.observability is not None:
            payload["observability"] = self.observability
        return payload

    def digest(self) -> str:
        """Hash of the tie-break-invariant observables.

        Timing, byte counts and cache hit/miss splits legitimately move
        when same-instant events reorder (two queries racing on one
        cache key); what may not move is the logical outcome: which
        queries ran, what each answered, how each ended, and the order
        the admission policy granted slots in.
        """
        semantic = {
            "admission_order": list(self.admission_order),
            "queries": [
                {
                    "qid": r.qid,
                    "tenant": r.tenant,
                    "kind": r.kind,
                    "algorithm": r.algorithm,
                    "pairs_joined": r.pairs_joined,
                    "result_records": r.result_records,
                    "disposition": r.disposition,
                }
                for r in self.records
            ],
        }
        blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class _Outcome:
    """What one execution contributed (lifecycle-internal)."""

    bytes_from_storage: int = 0
    pairs_joined: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    result_records: Optional[int] = None


class QueryServer:
    """Serve one arrival stream on one simulated cluster.

    A server is single-shot: :meth:`serve` consumes the engine and the
    shared caches, so observing a different workload needs a fresh
    server (exactly like a fresh :class:`ClusterSim`).

    ``faults`` threads a :class:`~repro.faults.FaultPlan` (or its spec
    string) into the shared cluster: nodes crash and links flake while
    the stream is in flight, and the QES recovery paths run under
    concurrency.  ``resilience`` bundles the serving-side knobs —
    deadline enforcement needs nothing here (SLOs ride on the arrivals),
    retry and shedding come from :class:`ResilienceConfig`.
    """

    def __init__(
        self,
        dataset: OilReservoirDataset,
        num_compute: int,
        machine: MachineSpec = PAPER_MACHINE,
        policy: str = "fifo",
        slots: int = 2,
        cache_policy: str = "lru",
        cache_capacity: Optional[int] = None,
        sanitize: bool = False,
        tie_break: str = "fifo",
        faults=None,
        resilience: Optional[ResilienceConfig] = None,
        observe=False,
    ):
        if slots <= 0:
            raise ValueError("need at least one execution slot")
        if cache_policy == "belady":
            # belady needs one query's full future reference string; a
            # shared cache serves an interleaving no single query knows
            raise ValueError("belady is undefined for a shared server cache")
        self.dataset = dataset
        self.slots = slots
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.cluster = ClusterSim(
            ClusterTopology(dataset.num_storage, num_compute),
            spec=machine,
            tie_break=tie_break,
            faults=faults,
        )
        self.planner = QueryPlanningService(
            dataset.metadata,
            num_storage=dataset.num_storage,
            num_compute=num_compute,
            machine=machine,
        )
        capacity = cache_capacity if cache_capacity is not None else machine.memory_bytes
        self.caches: List[CachingService] = [
            CachingService(capacity, make_policy(cache_policy))
            for _ in range(num_compute)
        ]
        self._policy = make_admission_policy(policy)
        self._shedder = self.resilience.build_shedder()
        self.sanitizer = None
        if sanitize:
            from repro.analysis.sanitizer import RunSanitizer

            self.sanitizer = RunSanitizer()
            self.sanitizer.attach_engine(self.cluster.engine)
            for j, cache in enumerate(self.caches):
                self.sanitizer.attach_cache(cache, name=f"node{j}")
        self._subscribers: List[Callable] = []
        # ``observe`` enables the continuous observability layer: pass
        # ``True`` for defaults or an ObservabilityConfig for SLOs and
        # window sizing.  Purely passive — a serve with observability on
        # replays byte-identically to one without (asserted in tests and
        # by the CLI sanitizer).
        self.observatory: Optional[ServeObservatory] = None
        if observe:
            self.observatory = ServeObservatory(
                observe
                if isinstance(observe, ObservabilityConfig)
                else ObservabilityConfig(),
                self,
            )
        # -- serve-time state ------------------------------------------
        self._served = False
        self._slots_free = slots
        self._arrivals_done = False
        self._total = 0
        self._terminal = 0
        self._last_terminal_at = 0.0
        self._wake: Optional[Event] = None
        self._admission_order: List[int] = []
        self._records: Dict[int, QueryRecord] = {}
        self._bytes_from_storage = 0
        self._latency = LatencyTracker()
        self._queue_wait = LatencyTracker()
        self._disposition_latency = LatencyTracker()
        self._dispositions: Dict[int, Dict[str, int]] = {}
        #: the recorded pairs of completed functional Indexed Joins, and
        #: the qid, execution and view of each, waiting for a flush
        self._joins = JoinBuffer()
        self._unanswered: List[Tuple[int, QES, object]] = []

    # -- public API ----------------------------------------------------

    def subscribe(self, fn: Callable) -> None:
        """Register ``fn(kind, subject, slots_free, depth, fields)``.

        The one lifecycle channel (DESIGN.md §13).  ``fn`` runs after
        each decision's state change, in the simulated process that made
        it: ``kind`` is one of ``submit queue evict admit deadline
        fault retry terminal``, ``subject`` the :class:`QueuedQuery`
        (the :class:`QueryRecord` for ``terminal``), the two levels —
        free slots and admission-queue depth — are as that change left
        them, and
        ``fields`` holds the kind's own scalars.  Every change of either
        level is followed at the same simulated instant by an event.
        Subscribers are passive: they read the serve, never steer it.
        """
        self._subscribers.append(fn)

    def _emit(self, kind: str, subject, /, **fields) -> None:
        for fn in self._subscribers:
            fn(kind, subject, self._slots_free, len(self._policy), fields)

    def serve(self, arrivals: Sequence[QueryArrival]) -> ServerReport:
        """Run the whole stream to quiescence and report.

        Every submitted query reaches exactly one terminal disposition;
        the stream quiesces even when the fault plan killed nodes or the
        shedding policies turned queries away.  With
        ``resilience.on_unrecoverable == "raise"``, the first query to
        exhaust its retry budget on an :class:`UnrecoverableFault`
        propagates it out of here instead (a structured error — the run
        terminates, never hangs).
        """
        if self._served:
            raise RuntimeError("QueryServer.serve is single-shot; build a "
                               "fresh server for another workload")
        self._served = True
        ordered = sorted(arrivals, key=lambda a: (a.at, a.qid))
        if len({a.qid for a in ordered}) != len(ordered):
            raise ValueError("duplicate qids in arrival stream")
        self._total = len(ordered)
        engine = self.cluster.engine
        engine.process(self._arrival_source(ordered), name="server-arrivals")
        engine.process(self._dispatcher(), name="server-dispatcher")
        engine.run()
        if self._terminal != self._total:
            raise SimulationError(
                f"server quiesced with {self._terminal}/{self._total} "
                "queries at a terminal disposition"
            )
        self._flush_joins()
        # pending fault timers or stranded in-flight transfers may tick
        # past the last disposition; the served makespan ends at the
        # final terminal query, like the QES reports
        makespan = self._last_terminal_at if self._records else engine.now
        report = ServerReport(
            policy=self._policy.name,
            slots=self.slots,
            makespan=makespan,
            records=[self._records[qid] for qid in sorted(self._records)],
            admission_order=self._admission_order,
            tenant_latency=self._latency.summary(),
            tenant_queue_wait=self._queue_wait.summary(),
            cache_per_node=[
                {
                    "hits": float(c.stats.hits),
                    "misses": float(c.stats.misses),
                    "evictions": float(c.stats.evictions),
                    "bytes_inserted": float(c.stats.bytes_inserted),
                }
                for c in self.caches
            ],
            bytes_from_storage=self._bytes_from_storage,
            tenant_dispositions={
                tenant: dict(sorted(counts.items()))
                for tenant, counts in sorted(self._dispositions.items())
            },
            disposition_latency=self._disposition_latency.summary(),
        )
        if self.observatory is not None:
            report.observability = self.observatory.finalize(makespan)
        if self.sanitizer is not None:
            self.sanitizer.after_serve(self, report, [a.qid for a in ordered])
            # one pseudo-report covering the whole serving run: the byte
            # ledger is the sum over every query (scans included), so
            # conservation still checks exactly
            degraded = any(
                r.disposition != COMPLETED or r.retries for r in report.records
            )
            if degraded:
                # an aborted attempt's in-flight transfers complete with
                # nobody left to claim their bytes — successful transfer
                # bytes may exceed the claimed ledger (never the reverse)
                self.sanitizer.allow_transfer_underclaim(
                    "aborted/retried queries strand completed transfers"
                )
            pseudo = ExecutionReport(
                algorithm="server",
                functional=self.dataset.functional,
                total_time=engine.now,
                bytes_from_storage=self._bytes_from_storage,
            )
            self.sanitizer.after_run(engine, pseudo)
        return report

    # -- simulated processes -------------------------------------------

    def _kick(self) -> None:
        """Wake the dispatcher if it is parked (idempotent per wait)."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _arrival_source(self, arrivals: Sequence[QueryArrival]):
        """Deliver arrivals at their timestamps; plan and enqueue each.

        Planning is driver-side (zero simulated cost): the paper's QPS is
        metadata arithmetic, negligible next to the transfers it
        predicts.  It is done :data:`_PLAN_BLOCK` arrivals at a time, at
        the first arrival of each block (:func:`build_queries`); a
        query's plan is a pure function of its arrival, so planning it
        early moves nothing.  Overload protection runs here too — a shed
        query is refused before it ever queues (or evicts a
        lower-priority waiter), reaching its terminal disposition
        without consuming a slot.
        """
        engine = self.cluster.engine
        for start in range(0, len(arrivals), _PLAN_BLOCK):
            block = arrivals[start : start + _PLAN_BLOCK]
            planned_block = build_queries(self.dataset, self.planner, block)
            for arrival, planned in zip(block, planned_block):
                if arrival.at > engine.now:
                    yield engine.timeout(arrival.at - engine.now)
                entry = QueuedQuery(planned, engine.now, engine.event())
                self._emit(
                    "submit", entry, kind=planned.kind,
                    predicted=planned.predicted_time,
                )
                if self._shed_on_submit(entry):
                    continue
                self._policy.submit(entry)
                self._emit("queue", entry)
                engine.process(self._lifecycle(entry), name=f"server-q{entry.qid}")
                self._kick()
        self._arrivals_done = True
        self._kick()

    def _shed_on_submit(self, entry: QueuedQuery) -> bool:
        """Overload protection at submission time.

        Returns ``True`` when the *incoming* query was shed (caller must
        not enqueue it).  The reject-lowest-priority policy may instead
        evict an already-queued victim: its parked lifecycle is failed
        with :class:`QueryShed` and records the disposition itself.
        """
        engine = self.cluster.engine
        if self._shedder is None:
            return False
        verdict = self._shedder.victim(entry, self._policy, engine.now)
        if verdict is None:
            return False
        victim, reason = verdict
        note = f"{self._shedder.name}: {reason}"
        if victim is entry:
            self._finalize(entry, SHED, _Outcome(), note=note)
            return True
        if not self._policy.remove(victim):
            # the victim was admitted at this very instant; nobody sheds
            return False
        self._emit("evict", victim, reason=note)
        victim.admitted.fail(QueryShed(victim.qid, note))
        return False

    def _dispatcher(self):
        """Grant free slots to the policy's next picks; park otherwise.

        Runs as its own process so admission decisions always see a
        settled queue state: every kick re-evaluates the full condition,
        so coalesced kicks (several submissions at one instant) are
        harmless, and a kick can never double-trigger the park event
        (:meth:`_kick` checks ``triggered``).  Termination counts
        *terminal* queries — shed and expired queries retire the stream
        exactly like completed ones.
        """
        engine = self.cluster.engine
        while True:
            while self._slots_free > 0 and len(self._policy) > 0:
                entry = self._policy.pop()
                self._slots_free -= 1
                entry.admitted_at = engine.now
                self._admission_order.append(entry.qid)
                wait = engine.now - entry.submitted_at
                self._emit("admit", entry, wait=wait)
                entry.admitted.succeed()
            if (
                self._arrivals_done
                and self._terminal == self._total
                and len(self._policy) == 0
            ):
                return
            wake = engine.event()
            self._wake = wake
            yield wake
            self._wake = None

    def _finalize(
        self,
        entry: QueuedQuery,
        disposition: str,
        outcome: _Outcome,
        retries: int = 0,
        note: Optional[str] = None,
        release_slot: bool = False,
    ) -> None:
        """Record the query's one terminal disposition and retire it.

        Exactly one call per submitted query, on every path out of the
        lifecycle (and directly from the arrival source for queries shed
        at submission, which never had a lifecycle slot to release).
        """
        engine = self.cluster.engine
        planned = entry.planned
        record = QueryRecord(
            qid=entry.qid,
            tenant=entry.tenant,
            kind=planned.kind,
            algorithm=planned.algorithm,
            arrival_at=planned.arrival.at,
            admitted_at=entry.admitted_at,
            finished_at=engine.now,
            predicted_time=planned.predicted_time,
            bytes_from_storage=outcome.bytes_from_storage,
            pairs_joined=outcome.pairs_joined,
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
            result_records=outcome.result_records,
            disposition=disposition,
            retries=retries,
            failure=note,
        )
        self._records[entry.qid] = record
        tenant_counts = self._dispositions.setdefault(entry.tenant, {})
        tenant_counts[disposition] = tenant_counts.get(disposition, 0) + 1
        self._disposition_latency.record(
            f"{entry.tenant}/{disposition}", record.latency
        )
        if disposition == COMPLETED:
            self._latency.record(entry.tenant, record.latency)
            self._queue_wait.record(entry.tenant, record.queue_wait)
        self._bytes_from_storage += outcome.bytes_from_storage
        if release_slot:
            self._slots_free += 1
        self._terminal += 1
        self._last_terminal_at = engine.now
        self._emit("terminal", record)
        if self._joins.full:
            self._flush_joins()
        self._kick()

    def _flush_joins(self) -> None:
        """Join the answers the join buffer holds and fill each one's
        count into its query's record (DESIGN.md §3.2)."""
        self._joins.flush()
        metadata = self.dataset.metadata
        for qid, qes, view in self._unanswered:
            self._records[qid] = replace(
                self._records[qid],
                result_records=count_result(qes.report, view, metadata),
            )
        self._unanswered.clear()

    def _lifecycle(self, entry: QueuedQuery):
        """One query, cradle to grave: wait for a slot, execute, record.

        With a deadline on the arrival, the SLO clock starts at
        submission and races both the admission wait and every execution
        attempt; with a fault plan installed, killed attempts are
        retried with seeded backoff up to the budget.  Every path ends
        in exactly one :meth:`_finalize`.
        """
        deadline_ev: Optional[Event] = None
        if entry.planned.arrival.deadline is not None:
            deadline_ev = self.cluster.engine.timeout(entry.planned.arrival.deadline)
        admitted = yield from self._await_admission(entry, deadline_ev)
        if admitted:
            yield from self._supervise(entry, deadline_ev)

    def _await_admission(self, entry: QueuedQuery, deadline_ev: Optional[Event]):
        """Wait for a slot; handle shedding evictions and queued expiry.

        Returns ``True`` once the query holds a slot.  On a terminal
        outcome while still queued (shed by an eviction, or deadline
        expired first) the disposition is recorded here and ``False``
        returned.
        """
        try:
            if deadline_ev is None:
                yield entry.admitted
                return True
            race = self.cluster.engine.any_of([entry.admitted, deadline_ev])
            yield race
            if race.first_index != 1:
                return True
            if entry.admitted.triggered:
                # the dispatcher granted the slot at this same instant
                # but the deadline won the race: hand the slot straight
                # back (it was never used)
                self._slots_free += 1
                self._kick()
            else:
                self._policy.remove(entry)
            self._emit("deadline", entry, where="queued")
            self._finalize(
                entry, DEADLINE_EXCEEDED, _Outcome(), note="deadline while queued"
            )
            return False
        except QueryShed as shed:
            self._finalize(entry, SHED, _Outcome(), note=shed.reason)
            return False

    def _supervise(self, entry: QueuedQuery, deadline_ev: Optional[Event]):
        """Execute the admitted query: attempts, deadline races, retries.

        Each attempt is one *contained* QES (:meth:`_begin`): a fault
        that exhausts its recovery fails the driver instead of tearing
        down the engine, and this supervisor — waiting on the driver
        itself — decides: retry after seeded backoff, or record the
        terminal ``failed`` disposition.  A deadline win aborts the
        attempt before recording ``deadline_exceeded``.  With no
        deadline and no fault plan nothing races and nothing fails: the
        loop is begin, wait, finish, finalize.
        """
        engine = self.cluster.engine
        planned = entry.planned
        retry = self.resilience.retry
        attempt = 0
        wasted = 0
        while True:
            attempt += 1
            if deadline_ev is not None and deadline_ev.triggered:
                self._finalize(
                    entry, DEADLINE_EXCEEDED, _Outcome(bytes_from_storage=wasted),
                    retries=attempt - 1, note="deadline", release_slot=True,
                )
                return
            qes = self._begin(planned)
            failure: Optional[BaseException] = None
            deadline_hit = False
            try:
                if deadline_ev is None:
                    yield qes.process
                else:
                    race = engine.any_of([qes.process, deadline_ev])
                    yield race
                    deadline_hit = race.first_index == 1
            except Interrupt as intr:
                # a contained execution only dies by interrupt when the
                # fault injector killed its compute placement; anything
                # else is a model bug and stays loud
                if not isinstance(intr.cause, FaultError):
                    raise
                failure = intr.cause
            except (FaultError, UnrecoverableFault) as exc:
                failure = exc
            if deadline_hit:
                # kill the attempt's whole process tree and wait for its
                # driver to unwind (pins release as the interrupt
                # propagates through its scopes)
                self._emit("deadline", entry, where="executing")
                qes.abort(QueryAborted(entry.qid, "deadline"))
                if not qes.process.triggered:
                    try:
                        yield qes.process
                    except (Interrupt, FaultError, UnrecoverableFault):
                        pass
            elif failure is not None:
                # the attempt died on a fault: kill its leftovers
                # (surviving joiners of a half-dead execution)
                self._emit(
                    "fault", entry, attempt=attempt, cause=type(failure).__name__
                )
                qes.abort(QueryAborted(entry.qid, "attempt failed"))
            outcome = self._outcome(
                planned, qes, finished=failure is None and not deadline_hit
            )
            outcome.bytes_from_storage += wasted
            if deadline_hit or failure is None:
                self._finalize(
                    entry, DEADLINE_EXCEEDED if deadline_hit else COMPLETED,
                    outcome, retries=attempt - 1,
                    note="deadline" if deadline_hit else None, release_slot=True,
                )
                return
            if attempt > retry.budget:
                if (
                    isinstance(failure, UnrecoverableFault)
                    and self.resilience.on_unrecoverable == "raise"
                ):
                    raise failure
                self._finalize(
                    entry, FAILED, outcome, retries=attempt - 1,
                    note=f"{type(failure).__name__}: {failure}",
                    release_slot=True,
                )
                return
            wasted = outcome.bytes_from_storage
            delay = retry.backoff(planned.arrival.seed, attempt)
            self._emit("retry", entry, attempt=attempt, delay=delay)
            timer = engine.timeout(delay)
            if deadline_ev is None:
                yield timer
            else:
                brace = engine.any_of([timer, deadline_ev])
                yield brace
                if brace.first_index == 1:
                    self._emit("deadline", entry, where="backoff")
                    self._finalize(
                        entry, DEADLINE_EXCEEDED,
                        _Outcome(bytes_from_storage=wasted),
                        retries=attempt - 1, note="deadline during backoff",
                        release_slot=True,
                    )
                    return

    def _outcome(self, planned: PlannedQuery, qes: QES, finished: bool) -> _Outcome:
        """What one attempt contributed, off its QES.

        The byte count and the per-query cache ledgers are whatever the
        attempt really did, finished or killed (the report counts bytes
        as they arrive; the views' stats freeze at unwind).  Only a
        finished attempt answered anything; a functional Indexed Join's
        pairs go to the join buffer, which counts its answer later.
        """
        views = qes.caches or ()
        outcome = _Outcome(
            bytes_from_storage=qes.report.bytes_from_storage,
            cache_hits=sum(v.stats.hits for v in views),
            cache_misses=sum(v.stats.misses for v in views),
        )
        if not finished:
            return outcome
        buffered = isinstance(qes, IndexedJoinQES) and qes.probed is not None
        if buffered:
            self._joins.add(qes)
            self._unanswered.append((planned.qid, qes, planned.view))
        report = qes.finish()
        outcome.pairs_joined = report.pairs_joined
        if planned.kind == "scan":
            selected = report.extras.get("selected_records")
            outcome.result_records = None if selected is None else int(selected)
        elif not buffered:
            outcome.result_records = count_result(
                report, planned.view, self.dataset.metadata
            )
        return outcome

    # -- execution -----------------------------------------------------

    def _begin(self, planned: PlannedQuery) -> QES:
        """Build and start one attempt of one query: its QES, contained.

        The two executions that cache get per-node
        :class:`QueryCacheView` facades, which give exact per-query
        cache attribution while entries land in (and hit from) the
        shared caches.  A scan streams to ``qid % num_compute`` (cheap
        deterministic placement), so overlapping scans — and joins
        touching the same chunks — hit.
        """
        cluster = self.cluster
        dataset = self.dataset
        qid = planned.qid
        common = {"contain_faults": True}
        if planned.algorithm != "grace-hash":
            common["caches"] = [
                QueryCacheView(shared, qid=qid) for shared in self.caches
            ]
        if planned.kind == "scan":
            return ScanQES(
                cluster, dataset.metadata, planned.table, planned.where,
                dataset.provider, compute=qid % cluster.num_compute,
                chunks=planned.plan.chunks, **common,
            ).begin(name=f"q{qid}-scan")
        tag = "ij" if planned.algorithm == "indexed-join" else "gh"
        return view_qes(
            planned.algorithm, cluster, dataset.metadata, dataset.provider,
            planned.view, planned.plan, **common,
        ).begin(name=f"q{qid}-{tag}")


# -- shadow serve ----------------------------------------------------------


def check_shadow_serve(
    server: QueryServer,
    report: ServerReport,
    arrivals: Sequence[QueryArrival],
    build: Callable[[str], QueryServer],
) -> str:
    """The serving contract's shadow clause: serve ``arrivals`` again on
    ``build(tie_break)``, an unobserved copy of ``server``.

    Reordering simultaneous events legitimately moves timing, so the
    tie-break is reversed (and :meth:`ServerReport.digest` must not move)
    only where no decision reads the timing: no faults or deadline, FIFO
    admission, no shedding.  Elsewhere the payload, minus the
    observability section, must replay byte for byte.  Returns
    ``"reversed"`` or ``"replay"``; a divergence is a SanitizerViolation.
    """
    from repro.analysis.sanitizer import SanitizerViolation

    if (
        server.cluster.faults is None
        and all(a.deadline is None for a in arrivals)
        and server._policy.name == "fifo"
        and server._shedder is None
    ):
        shadow = build("reversed").serve(arrivals)
        if shadow.digest() != report.digest():
            raise SanitizerViolation(
                "server outcome depends on same-instant event order "
                f"(digest {report.digest()[:12]} vs {shadow.digest()[:12]} "
                "under reversed tie-break)"
            )
        return "reversed"
    observed = {k: v for k, v in report.to_payload().items() if k != "observability"}
    replayed = build("fifo").serve(arrivals).to_payload()
    if json.dumps(replayed, sort_keys=True) != json.dumps(observed, sort_keys=True):
        raise SanitizerViolation("faulted serve did not replay byte-identically")
    return "replay"


# -- serial baseline -------------------------------------------------------


@dataclass
class SerialBaseline:
    """The same queries, one at a time, each on cold private caches."""

    records: List[QueryRecord]
    #: sum of standalone execution times (no queueing, no overlap)
    total_exec_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_from_storage: int = 0

    @property
    def cache_hit_rate(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0


def run_serial_baseline(
    dataset: OilReservoirDataset,
    arrivals: Sequence[QueryArrival],
    num_compute: int,
    machine: MachineSpec = PAPER_MACHINE,
    **server_kwargs,
) -> SerialBaseline:
    """Execute every arrival standalone: fresh cluster, cold caches.

    The single-query era in miniature — each query pays its own
    transfers, with no faults, no queueing and no deadline (SLOs are a
    serving concern; the baseline wants the reference answer).  The
    server's acceptance bar is that its shared-cache hit rate strictly
    beats this baseline on cache-friendly workloads.
    """
    records: List[QueryRecord] = []
    hits = misses = nbytes = 0
    total = 0.0
    for arrival in arrivals:
        server = QueryServer(
            dataset, num_compute, machine=machine, policy="fifo", slots=1,
            **server_kwargs,
        )
        rep = server.serve([replace(arrival, at=0.0, deadline=None)])
        (record,) = rep.records
        records.append(record)
        hits += record.cache_hits
        misses += record.cache_misses
        nbytes += record.bytes_from_storage
        total += record.exec_time
    return SerialBaseline(
        records=records,
        total_exec_time=total,
        cache_hits=hits,
        cache_misses=misses,
        bytes_from_storage=nbytes,
    )
