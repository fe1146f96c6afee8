"""The distributed page-level Indexed Join QES (Section 4.1).

"Each compute node runs a QES instance that receives a pair of sub-table
ids to join.  The QES instance checks with the local Cache Service Instance
to see if either of the sub-tables are present.  If not, the QES instance
requests for the sub-tables from appropriate BDS instances running on the
storage nodes.  It then performs a hash join on the received pairs of
sub-tables.  The QES instance directs the Caching Service Instance to store
these recently accessed sub-tables."

Execution model: one control loop per joiner (:meth:`IndexedJoinQES._joiner`)
serves both modes.  For every scheduled pair it fetches-or-hits the left
sub-table (disk read on its storage node, then network transfer), builds
its hash table if this load has not been built yet (``α_build`` per record
— rebuilt only after an eviction, so the one-build-per-sub-table property
of the cost model holds whenever the memory assumption does),
fetches-or-hits the right sub-table, then probes (``α_lookup`` per right
record).  Synchronous request/response, as implemented and measured in
the paper, is the default.

Pipelined execution (``pipeline=True``) is that same loop with a
background transfer one pair ahead: while the joiner builds/probes pair
``k``, a per-joiner prefetch process (:meth:`IndexedJoinQES._prefetch_pair`)
issues the transfers for pair ``k+1``'s sub-tables.  Prefetched sub-tables
are parked in the Caching Service's bounded staging area — outside the main
cache, so they can neither evict the active pair nor be evicted — and are
inserted through the ordinary ``get``/``put`` protocol only when their pair
becomes active.  The cache therefore observes the *exact same* operation
sequence as a synchronous run: on a fault-free run hits, misses, evictions,
``bytes_from_storage`` and the functional join output are all identical;
only the simulated clock differs, approaching ``max(T_transfer,
T_compute)`` per pair instead of their sum (see
:func:`repro.core.cost_models.indexed_join_cost`).  Whatever the
prefetcher did not stage — skipped, over budget, lost to a fault or
invalidated by a later eviction — the loop fetches synchronously, so the
pipeline degrades gracefully rather than changing behaviour.

Functional runs materialise the actual join output through the in-memory
hash join kernel; model-only runs move stubs and charge identical resource
costs.
"""

from __future__ import annotations

import functools
import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSim
from repro.cluster.events import Event, Interrupt
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.subtable import SubTable, SubTableId
from repro.faults.errors import ComputeNodeDown, FaultError, UnrecoverableFault
from repro.joins.hash_join import vectorized_hash_join
from repro.joins.join_index import PageJoinIndex, build_join_index
from repro.joins.qes import QES
from repro.joins.scheduler import PairSchedule, schedule_two_stage
from repro.metadata.service import MetaDataService
from repro.services.bds import SubTableProvider
from repro.services.cache import CachingService, make_policy
from repro.telemetry.spans import NULL_SPAN

__all__ = ["IndexedJoinQES", "JoinBuffer"]


class IndexedJoinQES(QES):
    """One fully-configured Indexed Join execution.

    Parameters beyond those of :class:`~repro.joins.qes.QES`:

    index:
        Precomputed page-level join index; built from chunk bounding boxes
        when omitted (the paper treats this as an offline step, so index
        construction is not charged to execution time either way).
    schedule:
        Pair schedule; defaults to the paper's two-stage strategy.
    cache_capacity:
        Per-joiner cache budget in bytes; defaults to the machine spec's
        memory size.
    cache_policy:
        ``lru`` (default, the paper's choice), ``fifo``, ``lfu`` or
        ``belady``.
    caches:
        Pre-populated per-joiner Caching Service instances (one per compute
        node).  Passing the caches of a previous execution warms this one —
        "the Caching Service can be used by the QES to store and access
        frequently accessed objects" across queries, not just within one.
        Mutually exclusive with ``cache_capacity``/``cache_policy``.
    pipeline:
        Overlap sub-table transfers with build/probe work (see module
        docstring).  Off by default — the synchronous mode is what the
        paper describes.
    """

    algorithm = "indexed-join"
    driver_name = "ij-driver"

    def __init__(
        self,
        cluster: ClusterSim,
        metadata: MetaDataService,
        left: int | str,
        right: int | str,
        on: Sequence[str],
        provider: SubTableProvider,
        index: Optional[PageJoinIndex] = None,
        schedule: Optional[PairSchedule] = None,
        cache_capacity: Optional[int] = None,
        cache_policy: str = "lru",
        caches: Optional[List[CachingService]] = None,
        pipeline: bool = False,
        sanitizer=None,
        contain_faults: bool = False,
    ):
        super().__init__(
            cluster, metadata, provider,
            sanitizer=sanitizer, contain_faults=contain_faults,
        )
        self.left = metadata.table(left)
        self.right = metadata.table(right)
        self.on = tuple(on)
        self.index = index if index is not None else build_join_index(
            self.left.all_chunks(), self.right.all_chunks(), self.on
        )
        self.schedule = schedule if schedule is not None else schedule_two_stage(
            self.index, cluster.num_compute
        )
        if self.schedule.num_joiners != cluster.num_compute:
            raise ValueError(
                f"schedule targets {self.schedule.num_joiners} joiners, cluster "
                f"has {cluster.num_compute}"
            )
        if caches is not None:
            if len(caches) != cluster.num_compute:
                raise ValueError(
                    f"got {len(caches)} caches for {cluster.num_compute} joiners"
                )
            if cache_capacity is not None:
                raise ValueError("pass either caches or cache_capacity, not both")
        self.caches = caches
        self.cache_capacity = cache_capacity
        self.cache_policy = cache_policy
        self.pipeline = pipeline

    # -- execution ---------------------------------------------------------------

    def _query_attrs(self):
        return {"pipeline": self.pipeline}

    def _start(self) -> None:
        """Set up the record lists and the caches (and, traced, record the
        ``schedule`` span).  A functional run's joiners join nothing: each
        appends its pairs to its compute node's list, and a
        :class:`JoinBuffer` joins the lists together, one kernel call per
        run of :func:`_batches`."""
        cluster = self.cluster
        #: functional runs: per compute node, the ``(left entry, right
        #: entry)`` of every pair probed there, in emission order, until a
        #: :class:`JoinBuffer` takes them; ``None`` on model-only runs
        self.probed: Optional[List[list]] = (
            [[] for _ in range(cluster.num_compute)]
            if self.results is not None else None
        )
        if self.caches is None:
            # built here, not in the constructor, and left on the instance
            # so callers can warm a later execution with them
            self.caches = []
            for j in range(cluster.num_compute):
                capacity = (
                    self.cache_capacity
                    if self.cache_capacity is not None
                    else cluster.joiner(j).memory_bytes
                )
                if self.cache_policy == "belady":
                    policy = make_policy("belady", self.schedule.reference_string(j))
                else:
                    policy = make_policy(self.cache_policy)
                self.caches.append(CachingService(capacity, policy))
        tel = self.tel
        if tel is not None:
            tel.metrics.histogram("ij.pair_seconds")
            for j, c in enumerate(self.caches):
                tel.watch_cache(c, prefix=f"cache.j{j}")
            sched = tel.recorder.begin(
                "schedule",
                category="control",
                node="global",
                track="main",
                **self.schedule.span_attrs(),
            )
            tel.recorder.finish(sched)

    def _launch(self, j: int, pairs, tag: str = ""):
        """Start a joiner over an explicit pair batch; returns the
        bookkeeping the driver needs to take over on its death."""
        progress = [0]  # index of the first pair not yet fully joined
        proc = self._spawn(
            self._joiner(j, pairs, progress, tag),
            name=f"ij-joiner{j}{tag}",
            compute=j,
        )
        return (j, pairs, progress, proc)

    def _driver(self):
        """Supervise the joiners: on a compute-node death, move the dead
        joiner's unfinished pairs onto survivors and keep going.

        A pair is "finished" only once its output is emitted and its
        pins released (the joiner advances ``progress`` with no
        intervening simulation events), so reassignment neither loses
        nor duplicates output.
        """
        cluster = self.cluster
        injector = cluster.faults
        active = [
            self._launch(j, list(self.schedule.per_joiner[j]))
            for j in range(cluster.num_compute)
        ]
        generation = 0
        i = 0
        while i < len(active):
            j, pairs, progress, proc = active[i]
            i += 1
            try:
                yield proc
            except Interrupt as intr:
                if injector is None or not isinstance(intr.cause, ComputeNodeDown):
                    # not a node death (e.g. a server aborting the whole
                    # query on a deadline): die, don't reassign
                    raise
                # the dead joiner handed back what its prefetchers had
                # staged as it unwound; reassigned pairs re-fetch through
                # the survivor's cache
                remaining = pairs[progress[0] :]
                if not remaining:
                    continue
                survivors = [
                    s
                    for s in range(cluster.num_compute)
                    if not injector.compute_is_dead(s)
                ]
                if not survivors:
                    raise UnrecoverableFault(
                        "no surviving compute node to take over pairs of "
                        f"dead joiner {j}",
                        chunk=remaining[0][0],
                        node=j,
                    )
                generation += 1
                self.report.recovery.reassigned_pairs += len(remaining)
                for s, batch in self.schedule.reassign(remaining, survivors).items():
                    active.append(self._launch(s, batch, tag=f".r{generation}"))
        # capture before returning: pending fault timers may advance the
        # clock after the join is already complete
        self.report.total_time = cluster.engine.now

    def _fill(self) -> None:
        report = self.report
        if self.probed is not None:
            # no serve's buffer took the pairs: the one-execution flush
            buffer = JoinBuffer()
            buffer.add(self)
            buffer.flush()
        report.pairs_joined = self.schedule.total_pairs
        report.extras["num_edges"] = float(self.index.num_edges)
        report.extras["num_components"] = float(self.index.num_components)
        report.extras["pipeline"] = 1.0 if self.pipeline else 0.0

    # -- the joiner control loop (both modes) -------------------------------------

    def _fetch(self, j: int, sid: SubTableId, scope, link_span, track: str,
               inflight: Optional[Dict[SubTableId, Event]], is_left: bool):
        """Cache-or-fetch one sub-table; charges transfer (and, for left
        sub-tables, the hash-table build) on a miss.  Generator: yields
        simulation events; returns the entry.  Every pin is taken through
        ``scope`` (the joiner's :class:`PinScope`, released at the end of
        the pair) so a fault delivered at any yield still releases it.

        Untraced, the joiner has already looked ``sid`` up and missed (a
        hit never enters this generator), so the lookup here is the
        ``fetch`` span's, made only when there is a span: each sub-table
        of a pair is counted once, as a hit or as a miss.

        When pipelining (``inflight`` given) a miss first looks for bytes
        the prefetcher already moved — staged, or still on the wire — and
        pays the synchronous transfer only for a sub-table the prefetcher
        skipped, lost to a fault, or staged before an eviction invalidated
        its lookahead decision.  The cache protocol (``acquire`` → hit,
        pinned; or miss → ``put`` with a pin) is the same either way; the
        synchronous mode never consults the staging area.
        """
        cluster, tel = self.cluster, self.tel
        with NULL_SPAN if tel is None else tel.recorder.span(
            "fetch", category="wait", node=f"compute{j}", track=track,
            chunk=str(sid), side="left" if is_left else "right",
        ) as fspan:
            if fspan is not None:
                entry = scope.acquire(sid)
                fspan.attrs["hit"] = entry is not None
                if inflight is not None:
                    fspan.attrs["mode"] = "pipelined"
                if entry is not None:
                    return entry
            cache = self.caches[j]
            desc = self.metadata.chunk(sid)
            if tel is not None:
                tel.metrics.counter("metadata.chunk_lookups").inc()
            staged = None
            if inflight is not None:
                staged = cache.take_prefetched(sid)
                if staged is None and sid in inflight:
                    # the next pair's prefetcher is mid-transfer on a
                    # sub-table we share with it — wait for that transfer
                    # instead of re-issuing
                    t0 = cluster.engine.now
                    try:
                        yield inflight[sid]
                    except FaultError:
                        pass  # prefetcher's transfer faulted; recover below
                    self.report.per_joiner[j].stall += cluster.engine.now - t0
                    staged = cache.take_prefetched(sid)
            if staged is not None:
                if fspan is not None:
                    fspan.attrs["staged"] = True
                entry, serving = staged
            else:
                serving = yield from self._transfer_with_recovery(
                    j, desc, inflight, link_span
                )
                entry = self.provider.fetch(desc, node=serving)
            if is_left:
                # build the hash table for this load (once until evicted)
                yield from self._charge_cpu("build", j, desc.num_records, track)
            # left entries are charged double: sub-table + its hash table
            # (this is exactly the 2·c_R term of the memory assumption)
            nbytes = desc.size * 2 if is_left else desc.size
            scope.put(sid, entry, nbytes, pin=True, source=serving)
            return entry

    def _joiner(self, j: int, pairs, progress, tag: str = ""):
        """The Section 4.1 control loop of one joiner, in either mode.

        Pipelined, the loop additionally keeps one background process a
        pair ahead: it waits for pair ``k``'s prefetcher, starts pair
        ``k+1``'s, then consumes pair ``k`` exactly as the synchronous
        loop would.  ``inflight`` (pipelined only) maps sub-table ids to
        the event of their in-flight transfer, prefetched *or* fallback,
        so neither side re-issues a transfer the other has on the wire.
        """
        cluster, tel = self.cluster, self.tel
        engine = cluster.engine
        cache = self.caches[j]
        pb = self.report.per_joiner[j]
        probed = None if self.probed is None else self.probed[j]
        # an untraced probe is charged here, not through ``_charge_cpu``:
        # the joiner's CPU and per-record probe cost, read once
        node = cluster.joiner(j)
        cpu, lookup_cost = node.cpu, node.spec.lookup_cost
        track = f"qes{tag}"
        inflight = None
        if self.pipeline:
            if not pairs:
                return
            inflight = {}
        jspan = pspan = None
        if tel is not None:
            jspan = tel.recorder.begin(
                f"joiner{j}{tag}", category="control", node=f"compute{j}",
                track=track, parent=self.spans[0], joiner=j, pairs=len(pairs),
            )
            if inflight is not None:
                jspan.attrs["pipelined"] = True
        try:
            # one scope for the whole loop, released at the end of every
            # pair: a pair's pins live one pair, and a fault thrown into any
            # yield below still unpins the pair in hand on the way out (before
            # the staged hand-back below), so a dying query cannot leave the
            # (shared) cache permanently shrunk by orphaned pins
            with cache.pin_scope() as scope:
                if inflight is not None:
                    fetch_next = self._prefetch(j, pairs, 0, (), inflight, jspan, tag)
                for seq, (lid, rid) in enumerate(pairs):
                    if tel is not None:
                        # per-pair sites guard on ``tel`` themselves: an
                        # untraced run formats no span name, stringifies no
                        # id and enters no span context
                        t_pair = engine.now
                        pspan = tel.recorder.begin(
                            f"pair{seq}", category="control",
                            node=f"compute{j}", track=track,
                            left=str(lid), right=str(rid), pair_seq=seq,
                        )
                    if inflight is not None:
                        t0 = engine.now
                        with NULL_SPAN if tel is None else tel.recorder.span(
                            "await-prefetch", category="wait",
                            node=f"compute{j}", track=track, pair_seq=seq,
                        ):
                            yield fetch_next
                        pb.stall += engine.now - t0
                        if seq + 1 < len(pairs):
                            fetch_next = self._prefetch(
                                j, pairs, seq + 1, (lid, rid), inflight, jspan, tag
                            )
                    # untraced, a hit is one lookup, not a generator
                    left_entry = None if tel is not None else scope.acquire(lid)
                    if left_entry is None:
                        left_entry = yield from self._fetch(
                            j, lid, scope, jspan, track, inflight, is_left=True
                        )
                    right_entry = None if tel is not None else scope.acquire(rid)
                    if right_entry is None:
                        right_entry = yield from self._fetch(
                            j, rid, scope, jspan, track, inflight, is_left=False
                        )
                    records = right_entry.num_records
                    if tel is None:
                        # ``_charge_cpu``'s untraced probe, without its generator
                        t0 = engine.now
                        yield cpu.reserve_time(records * lookup_cost)
                        self._credit_cpu(False, j, records, engine.now - t0)
                    else:
                        yield from self._charge_cpu("probe", j, records, track)
                    if probed is not None:
                        # joined set-at-a-time by :func:`_join_probed`
                        assert isinstance(left_entry, SubTable)
                        assert isinstance(right_entry, SubTable)
                        probed.append((left_entry, right_entry))
                    scope.release()
                    if tel is not None:
                        tel.recorder.finish(pspan)
                        pspan = None
                        tel.metrics.histogram("ij.pair_seconds").observe(
                            engine.now - t_pair
                        )
                    # no simulation events between emitting the pair's output
                    # above and this update, so a pair is either fully done or
                    # not started from the driver's point of view
                    progress[0] = seq + 1
        except BaseException as exc:
            if pspan is not None:
                # the pair a fault interrupted: its span ends with the cause
                pspan.attrs.setdefault("error", type(exc).__name__)
                tel.recorder.finish(pspan)
            # killed mid-pair (abort, node death, exhausted recovery):
            # nobody is left to take what the prefetchers parked for the
            # pair in hand and the one ahead, so hand that staging budget
            # back — by key, the cache may be shared with other queries.
            # A sub-table still on the wire is its prefetcher's to release.
            if inflight is not None:
                for pair in pairs[progress[0] : progress[0] + 2]:
                    for sid in pair:
                        cache.take_prefetched(sid)
            raise
        finally:
            if jspan is not None and jspan.end is None:
                tel.recorder.finish(jspan)

    def _prefetch(self, j: int, pairs, seq: int, active, inflight, jspan, tag):
        """Spawn the background transfer process for upcoming pair ``seq``;
        it dies with its compute node, like the joiner."""
        return self._spawn(
            self._prefetch_pair(j, pairs[seq], seq, active, inflight, jspan, tag),
            name=f"ij-prefetch{j}{tag}.{seq}",
            compute=j,
        )

    def _prefetch_pair(self, j: int, pair, seq: int, active,
                       inflight: Dict[SubTableId, Event], jspan, tag: str):
        """Background transfer process for upcoming pair ``seq``.

        Transfers are issued sequentially (one outstanding request per
        joiner, like the single-threaded QES instance of the paper) and
        the fetched sub-tables parked in the cache's staging area.  A
        sub-table is skipped when it is already resident, staged, in
        flight, part of ``active`` (the pair the joiner is consuming while
        this process runs), or would overflow the staging budget — the
        consumer then hits the cache or falls back to a synchronous fetch,
        keeping ``bytes_from_storage`` identical either way.  ``active``
        covers a window the other tests cannot see: between taking a
        staged left sub-table and putting it in the cache the consumer
        yields for the hash build, when the sub-table is neither resident,
        staged nor in flight although it is about to be resident and
        pinned — fetching it again would move its bytes twice and strand
        the second copy in the staging area.

        The prefetcher does not retry: a faulted transfer releases its
        staging slot and leaves recovery (replica failover, backoff) to
        the consumer's synchronous path, which owns the accounting.
        """
        cluster, tel, report = self.cluster, self.tel, self.report
        injector = cluster.faults
        cache = self.caches[j]
        pb = report.per_joiner[j]
        rec = report.recovery
        with NULL_SPAN if tel is None else tel.recorder.span(
            f"prefetch{seq}", category="control", node=f"compute{j}",
            track=f"qes{tag}.pf", parent=jspan,
        ):
            for sid in pair:
                if sid in active or sid in cache or sid in inflight:
                    continue
                desc = self.metadata.chunk(sid)
                if tel is not None:
                    tel.metrics.counter("metadata.chunk_lookups").inc()
                node = desc.ref.storage_node
                if injector is not None and injector.storage_is_dead(node):
                    # primary known dead: stage from the first live replica
                    node = next(
                        (
                            r.storage_node
                            for r in desc.all_refs
                            if not injector.storage_is_dead(r.storage_node)
                        ),
                        None,
                    )
                    if node is None:
                        continue  # consumer will raise UnrecoverableFault
                if not cache.prefetch_begin(sid, desc.size):
                    continue
                transfer = cluster.read_and_send(node, j, desc.size)
                inflight[sid] = transfer
                t0 = cluster.engine.now
                tspan = None
                if tel is not None:
                    tspan = tel.recorder.begin(
                        "transfer",
                        category="transfer",
                        node=f"storage{node}",
                        track=f"serve-compute{j}.pf",
                        chunk=str(sid),
                        bytes=desc.size,
                        prefetched=True,
                    )
                    tel.recorder.link(tspan, jspan)
                try:
                    yield transfer
                except FaultError as exc:
                    if tspan is not None:
                        tspan.attrs["error"] = type(exc).__name__
                    rec.wasted_seconds += cluster.engine.now - t0
                    cache.prefetch_cancel(sid)
                    inflight.pop(sid, None)
                    continue
                except BaseException:
                    # an Interrupt (node death, server abort) unwinding
                    # through the transfer must hand the staging budget
                    # back — reservations don't survive their prefetcher
                    cache.prefetch_cancel(sid)
                    inflight.pop(sid, None)
                    raise
                finally:
                    if tspan is not None and tspan.end is None:
                        tel.recorder.finish(tspan)
                pb.transfer += cluster.engine.now - t0
                report.bytes_from_storage += desc.size
                if tel is not None:
                    tel.metrics.counter("op.transfer.bytes").inc(desc.size)
                # staged with the node that served it, so the consumer can
                # tag the cache entry for failure invalidation
                cache.prefetch_complete(
                    sid, (self.provider.fetch(desc, node=node), node)
                )
                del inflight[sid]


#: the probe-side records one kernel call takes at most, unless one node
#: alone has more, and those a :class:`JoinBuffer` holds before it is
#: full.  A serve's execution probes 1,024 records at most at seed 7, so
#: a flush joins several in one call; ``view_query``'s four
#: 16,384-record nodes do not fit: in one call its arrays, four times
#: larger, each crossed glibc's 128 KiB mmap threshold and were faulted
#: in afresh — 16.3 ms against 7.3 ms for four calls (DESIGN.md §3.2)
_BATCH_RECORDS = 1 << 13


class JoinBuffer:
    """Functional Indexed Join executions whose recorded pairs wait to be
    joined, set-at-a-time across executions (DESIGN.md §3.2).

    :meth:`add` takes a completed execution's pairs, so its ``finish()``
    joins nothing; :meth:`flush` joins the compute nodes of every
    execution held, one kernel call per run of :func:`_batches` across
    executions — a run holds only executions with one ``(left schema,
    right schema, on)`` — and fills each execution's ``results`` and
    ``report.kernel.matches``, the records of its nodes' answers.  A
    standalone execution's ``finish()`` is the one-execution flush; a
    query server holds one buffer per serve, flushes it whenever it is
    :attr:`full` and once more when the serve ends.
    """

    def __init__(self) -> None:
        self._held: List[Tuple[IndexedJoinQES, List[list]]] = []
        #: the probe-side records of the pairs held
        self.records = 0

    @property
    def full(self) -> bool:
        return self.records >= _BATCH_RECORDS

    def add(self, qes: IndexedJoinQES) -> None:
        """Take the recorded pairs of ``qes``, a functional execution
        whose driver has completed, ahead of its ``finish()``."""
        probed, qes.probed = qes.probed, None
        self._held.append((qes, probed))
        self.records += sum(
            right.num_records for records in probed for _, right in records
        )

    def flush(self) -> None:
        """Join every execution held, in the order added, and empty the
        buffer.  An execution that probed nothing keeps its empty
        ``results``."""
        runs: Dict[tuple, list] = {}
        for qes, probed in self._held:
            first = next((records[0] for records in probed if records), None)
            if first is not None:
                key = (first[0].schema, first[1].schema, qes.on)
                runs.setdefault(key, []).extend(
                    (qes, j, records) for j, records in enumerate(probed)
                )
        self._held, self.records = [], 0
        for (_, _, on), nodes in runs.items():
            k = 0
            for batch in _batches([records for _, _, records in nodes]):
                answers, _ = _join_probed(batch, on)
                for (qes, j, _), parts in zip(nodes[k:], answers):
                    qes.results[j] = parts
                    qes.report.kernel.matches += sum(p.num_records for p in parts)
                k += len(batch)


def _batches(probed: Sequence[list]):
    """``probed`` cut into runs of consecutive compute nodes, one kernel
    call each: a run takes nodes while its probe side stays within
    :data:`_BATCH_RECORDS` records, and a node over it runs alone."""
    batch, size = [], 0
    for records in probed:
        n = sum(right.num_records for _, right in records)
        if batch and size + n > _BATCH_RECORDS:
            yield batch
            batch, size = [], 0
        batch.append(records)
        size += n
    if batch:
        yield batch


def _join_probed(
    probed: Sequence[list], on: Sequence[str]
) -> Tuple[List[List[SubTable]], int]:
    """Join the recorded ``(left, right)`` pairs of every compute node of
    ``probed`` (a run of :func:`_batches`: the nodes of one or of several
    executions, or one node of a very large one) with one kernel call;
    returns each node's answer — one sub-table, none when nothing of its
    matched — and the match count.

    Section 4.1 builds a left sub-table's hash table once and probes it
    with every right sub-table of its component.  The simulated clock
    has charged exactly that, pair by pair; this is the host doing the
    same, set-at-a-time over the whole run: each *distinct* left
    sub-table (by identity — a :class:`SubTable` hashes by identity, and
    a re-fetched copy is a new build) enters the build side once, tagged
    with its number; every pair's right sub-table enters the probe side,
    node after node, tagged with its left's number and with its node;
    and the kernel joins on ``(tag, *on)``.  When a right sub-table is
    probed by several pairs, the distinct rights are concatenated once
    and the probe side gathered from them: a serve's run probes each
    about 3.6 times, and concatenating costs per part.  Its
    output is in right-row order, so its node column is sorted and one
    ``searchsorted`` cuts it into the nodes' answers, each in pair order
    with each pair's rows in the order a join of that pair alone would
    give: a node's answer is the concatenation of its per-pair joins.
    """
    results: List[List[SubTable]] = [[] for _ in probed]
    pairs = [pair for records in probed for pair in records]
    if not pairs:
        return results, 0
    n_pairs = len(pairs)
    left_of, right_of = zip(*pairs)
    num_records = operator.attrgetter("num_records")
    lefts, rights = list(dict.fromkeys(left_of)), list(dict.fromkeys(right_of))
    tag, node, left_schema, right_schema, pair_schema = _batch_schemas(
        lefts[0].schema, rights[0].schema, tuple(on)
    )
    # each side column by column, straight from the parts' arrays (a
    # side's parts come from one table, so they share its column order);
    # counts as arrays: ``np.repeat`` converts a list argument slowly
    left_columns = {
        tag: np.repeat(
            np.arange(len(lefts)), np.fromiter(map(num_records, lefts), np.intp, len(lefts))
        )
    }
    per_column = zip(*[left._columns.values() for left in lefts])
    left_columns.update(zip(left_schema.names[1:], map(np.concatenate, per_column)))
    tag_of = dict(zip(lefts, range(len(lefts))))
    sizes = np.fromiter(map(num_records, right_of), np.intp, n_pairs)
    right_columns = {
        tag: np.repeat(np.fromiter(map(tag_of.__getitem__, left_of), np.int64, n_pairs), sizes),
        node: np.repeat(np.repeat(np.arange(len(probed)), list(map(len, probed))), sizes),
    }
    per_column = map(np.concatenate, zip(*[right._columns.values() for right in rights]))
    if len(rights) < n_pairs:
        # pair i's rows are its right's rows of the distinct rights' columns
        which = np.fromiter(
            map(dict(zip(rights, range(len(rights)))).__getitem__, right_of), np.intp, n_pairs
        )
        distinct = np.fromiter(map(num_records, rights), np.intp, len(rights))
        ends = np.cumsum(sizes)
        rows = np.arange(ends[-1]) + np.repeat(
            (np.cumsum(distinct) - distinct)[which] - (ends - sizes), sizes
        )
        per_column = (column[rows] for column in per_column)
    right_columns.update(zip(right_schema.names[2:], per_column))

    out, stats = vectorized_hash_join(
        SubTable._unchecked(lefts[0].id, left_schema, left_columns),
        SubTable._unchecked(rights[0].id, right_schema, right_columns),
        (tag, *on),
    )
    if not stats.matches:
        return results, 0
    columns = out.columns(pair_schema.names)
    bounds = np.searchsorted(out.column(node), np.arange(len(probed) + 1)).tolist()
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a < b:
            results[j].append(SubTable._unchecked(
                out.id, pair_schema,
                {n: c[a:b] for n, c in zip(pair_schema.names, columns)},
            ))
    return results, stats.matches


@functools.lru_cache(maxsize=16)
def _batch_schemas(
    left: Schema, right: Schema, on: Tuple[str, ...]
) -> Tuple[str, str, Schema, Schema, Schema]:
    """What :func:`_join_probed` joins pairs of ``left`` and ``right``
    sub-tables with: the tag and node column names (two names no
    attribute of either side or of the output has), the tagged build
    side's schema (tag first), the tagged probe side's (tag, node
    first) and the schema of a node's answer.  Schemas are immutable,
    and an execution's pairs all have the same two."""
    pair_schema = left.join(right, on=on)
    taken = {*pair_schema.names, *right.names}
    tag = "left_tag"
    while tag in taken:
        tag += "_"
    node = tag + "_node"
    while node in taken:
        node += "_"
    tag_attr, node_attr = Attribute(tag, "int64"), Attribute(node, "int64")
    return (
        tag, node,
        Schema([tag_attr, *left]), Schema([tag_attr, node_attr, *right]),
        pair_schema,
    )
