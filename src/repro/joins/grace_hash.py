"""The distributed Grace Hash QES (Section 4.2).

"Each storage node runs a QES instance that contacts the local BDS instance
to retrieve matching sub-tables from the left (inner) table.  A hash
function (h1) is used to map records to QES instances, executing on the
compute cluster.  A compute node QES instance, upon receipt of a record,
applies another hash function (h2) to map the record to a bucket.  Buckets
are stored on local disks on the compute nodes.  The same procedure is
repeated with the right (outer) table.  Each compute node QES instance then
proceeds to join pairs of buckets independently."

This is the Kitsuregawa Grace Hash modified — as the paper modifies it —
so the bucket-joining phase is entirely node-local (no network traffic
after partitioning).  Streaming is batched at chunk granularity in a
staggered all-to-all: a storage node reads a chunk, splits its records by
``h1``, sends one batch per compute node (double-buffered — the sender
does not wait for the remote disk), while each receiving QES instance
alternates between draining its NIC and writing buckets, making its
ingest time additive in the Transfer and Write terms exactly as the cost
model states.  "The number of buckets is chosen so that each bucket fits
in memory."

Functional runs route the real records (``h1``/``h2`` are multiplicative
bit mixers over the join-key bit patterns, applied vectorised) and join
real bucket pairs; model-only runs move per-batch byte counts with an even
``h1``/``h2`` split, which is also the distribution the paper's cost model
assumes.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.cluster import ClusterSim
from repro.cluster.events import Event, Interrupt
from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.keys import id_order
from repro.datamodel.subtable import SubTable, SubTableId, concat_subtables
from repro.faults.errors import (
    ComputeNodeDown,
    StorageNodeDown,
    TransientTransferFault,
    UnrecoverableFault,
)
from repro.joins.hash_join import vectorized_hash_join
from repro.joins.qes import QES
from repro.metadata.service import MetaDataService
from repro.services.bds import SubTableProvider
from repro.telemetry.spans import NULL_SPAN, maybe_span

__all__ = ["GraceHashQES", "hash_records"]

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xFF51AFD7ED558CCD)
_MIX3 = np.uint64(0xC4CEB9FE1A85EC53)


def hash_records(sub: SubTable, on: Sequence[str]) -> np.ndarray:
    """Vectorised 64-bit mix of the join-key bit patterns of every record.

    Equal keys hash equally across tables because hashing operates on the
    bit patterns of the (dtype-checked) join columns — once a float
    column's ``-0.0`` is made ``0.0``, since the kernel joins the two by
    value and so they must reach the same joiner and bucket.
    """
    h = np.zeros(sub.num_records, dtype=np.uint64)
    for name in on:
        col = sub.column(name)
        if col.dtype.kind == "f":
            col = col + col.dtype.type(0)  # -0.0 + 0.0 is 0.0; all else as it was
        if col.dtype.itemsize == 4:
            bits = col.view(np.uint32).astype(np.uint64)
        elif col.dtype.itemsize == 8:
            bits = col.view(np.uint64).copy()
        else:  # 1/2-byte integer attributes
            bits = col.astype(np.uint64)
        h ^= (bits + _MIX1) * _MIX2
        h ^= h >> np.uint64(33)
        h *= _MIX3
    h ^= h >> np.uint64(29)
    return h


class GraceHashQES(QES):
    """One fully-configured Grace Hash execution.

    Parameters mirror :class:`~repro.joins.indexed_join.IndexedJoinQES`
    except there is no index/schedule/cache — Grace Hash needs none, which
    is precisely its appeal in the paper's comparison.
    """

    algorithm = "grace-hash"
    driver_name = "gh-driver"

    def __init__(
        self,
        cluster: ClusterSim,
        metadata: MetaDataService,
        left: int | str,
        right: int | str,
        on: Sequence[str],
        provider: SubTableProvider,
        range_constraint: Optional["BoundingBox"] = None,
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
        self.range_constraint = range_constraint
        self.num_buckets = self._choose_num_buckets()

    def _choose_num_buckets(self) -> int:
        """Smallest bucket count such that a bucket pair (plus the left
        bucket's hash table) fits in a joiner's memory."""
        n_j = self.cluster.num_compute
        mem = self.cluster.joiner(0).memory_bytes
        left_pj = self.left.nbytes / n_j
        right_pj = self.right.nbytes / n_j
        need = 2 * left_pj + right_pj  # left bucket + its HT + right bucket
        return max(1, math.ceil(need / mem))

    # -- execution -----------------------------------------------------------------

    def _query_attrs(self):
        return {"num_buckets": self.num_buckets}

    def _start(self) -> None:
        """Phase 1 starts with the driver: one streamer per storage node,
        partitioning both tables into the compute nodes' buckets."""
        cluster, tel = self.cluster, self.tel
        n_j = cluster.num_compute
        n_b = self.num_buckets
        self.report.extras["num_buckets"] = float(n_b)
        self.pspan = None
        if tel is not None:
            tel.metrics.histogram("gh.bucket_seconds")
            self.pspan = tel.recorder.begin(
                "partition",
                category="control",
                node="global",
                track="main",
            )
            self.spans.append(self.pspan)
        # bucket state: sizes always; record payloads only when functional
        # indices: [joiner][side][bucket]
        self.bucket_bytes = [[[0] * n_b for _ in range(2)] for _ in range(n_j)]
        self.bucket_records = [[[0] * n_b for _ in range(2)] for _ in range(n_j)]
        self.bucket_data: Optional[List[List[List[List[SubTable]]]]] = (
            [[[[] for _ in range(n_b)] for _ in range(2)] for _ in range(n_j)]
            if self.results is not None
            else None
        )
        #: per joiner, the last fire-and-forget bucket write posted to it —
        #: what the partition barrier waits on.  One joiner's writes queue
        #: on the same devices and each takes time, so each ends strictly
        #: after the one posted before it: the last one ends last
        self.pending_writes: Dict[int, Event] = {}
        #: chunk ids whose bucket contributions are fully recorded; a chunk
        #: interrupted mid-stream never commits and is redone from a replica
        self.committed: set = set()
        self._all_chunks: List[ChunkDescriptor] = []
        self._streamers = []
        for s in range(cluster.num_storage):
            chunks = self.metadata.chunks_on_node(self.left.table_id, s) + \
                self.metadata.chunks_on_node(self.right.table_id, s)
            if self.range_constraint is not None:
                chunks = [
                    c for c in chunks if c.bbox.overlaps(self.range_constraint)
                ]
            self._all_chunks.extend(chunks)
            self._streamers.append(
                self._spawn(self._storage_streamer(s, chunks), name=f"gh-storage{s}")
            )

    def _driver(self):
        """Partition barrier, restart rounds, then the bucket joins."""
        cluster, tel, report = self.cluster, self.tel, self.report
        injector = cluster.faults
        yield cluster.engine.all_of(self._streamers)
        # ---- restart rounds: re-partition uncommitted chunks --------
        # A storage crash aborts that node's streamer mid-chunk; every
        # chunk it had not committed restarts, whole, from the first
        # surviving replica.  Loops because a replica node can itself
        # die during a restart round.
        round_no = 0
        while injector is not None:
            missing = [c for c in self._all_chunks if c.id not in self.committed]
            if not missing:
                break
            round_no += 1
            groups: dict = {}
            for desc in missing:
                node = next(
                    (
                        r.storage_node
                        for r in desc.all_refs
                        if not injector.storage_is_dead(r.storage_node)
                    ),
                    None,
                )
                if node is None:
                    raise UnrecoverableFault(
                        "no surviving replica to restart chunk from",
                        chunk=desc.id,
                        node=desc.ref.storage_node,
                    )
                groups.setdefault(node, []).append(desc)
            report.recovery.restarted_chunks += len(missing)
            yield cluster.engine.all_of([
                self._spawn(
                    self._storage_streamer(node, descs),
                    name=f"gh-storage{node}.r{round_no}",
                )
                for node, descs in sorted(groups.items())
            ])
        yield cluster.engine.all_of(self.pending_writes.values())
        if tel is not None:
            tel.recorder.finish(self.pspan)
        report.extras["partition_phase_time"] = cluster.engine.now
        # Grace Hash cannot survive a compute-node loss: the node's
        # scratch disk held one h1-partition of *both* tables, and
        # unlike the Indexed Join there is no replica to re-read
        # buckets from.  Terminate with a structured fault instead.
        if injector is not None and injector.dead_compute:
            raise UnrecoverableFault(
                "grace hash lost partitioned bucket data with its "
                "compute node",
                node=min(injector.dead_compute),
            )
        joiners = [
            self._spawn(self._bucket_joiner(j), name=f"gh-joiner{j}", compute=j)
            for j in range(cluster.num_compute)
        ]
        try:
            yield cluster.engine.all_of(joiners)
        except Interrupt as intr:
            if not isinstance(intr.cause, ComputeNodeDown):
                # not a node death (e.g. a server aborting the whole
                # query on a deadline): die without relabelling it
                raise
            raise UnrecoverableFault(
                "grace hash lost partitioned bucket data with its "
                "compute node",
                node=intr.cause.node,
            ) from intr
        # capture before returning: pending fault timers may advance
        # the clock after the join is already complete
        report.total_time = cluster.engine.now

    def _fill(self) -> None:
        self.report.pairs_joined = self.cluster.num_compute * self.num_buckets

    # -- phase 1: storage-side streaming ----------------------------------------------

    def _storage_streamer(self, s: int, chunks: List[ChunkDescriptor]):
        """Stream every chunk in ``chunks`` from sender node ``s``.

        When ``s`` crashes mid-stream the streamer stops: the chunk in
        flight never committed (bucket state is only updated after all of
        a chunk's batches shipped), so the driver's restart rounds redo it
        — and every later chunk of this streamer — from a surviving
        replica.  Batches already shipped for the aborted chunk are wasted
        work, accounted in ``report.recovery``.
        """
        cluster, tel = self.cluster, self.tel
        committed = self.committed
        with maybe_span(
            tel, f"stream{s}", category="control", node=f"storage{s}",
            track="stream", parent=self.pspan, chunks=len(chunks),
        ):
            for desc in chunks:
                if desc.id in committed:
                    continue
                t0 = cluster.engine.now
                shipped = [0]
                try:
                    with NULL_SPAN if tel is None else tel.recorder.span(
                        "chunk", category="control", node=f"storage{s}",
                        track="stream", chunk=str(desc.id),
                    ):
                        yield from self._stream_chunk(s, desc, shipped)
                except StorageNodeDown:
                    rec = self.report.recovery
                    rec.wasted_seconds += cluster.engine.now - t0
                    rec.wasted_bytes += shipped[0]
                    return
                committed.add(desc.id)

    def _stream_chunk(self, s: int, desc: ChunkDescriptor, shipped: list):
        """Partition one chunk: ship all its batches, then commit.

        The bucket-state updates are deferred until every batch is on its
        receiver and applied with no intervening simulation events, so a
        chunk's contribution is all-or-nothing — the invariant chunk
        restart relies on for exactly-once bucket contents.
        """
        n_j = self.cluster.num_compute
        n_b = self.num_buckets
        bucket_data = self.bucket_data
        side = 0 if desc.table_id == self.left.table_id else 1
        # the chunk read itself is charged per shipped batch inside
        # _ship_batch (the storage QES streams records as it reads)
        record_size = desc.size // desc.num_records if desc.num_records else 0
        #: deferred bucket commits: (joiner, bucket, records, bytes, data)
        commits = []
        if bucket_data is not None:
            sub = self.provider.fetch(desc, node=s)
            assert isinstance(sub, SubTable)
            h = hash_records(sub, self.on)
            # one stable sort by destination (joiner, bucket): each
            # destination's records are then one run, in record order
            dest = (h % np.uint64(n_j)) * np.uint64(n_b) + (
                (h >> np.uint64(20)) % np.uint64(n_b)
            )
            dest = dest.astype(np.int64)
            routed = sub.take(id_order(dest))
            per_dest = np.bincount(dest, minlength=n_j * n_b).tolist()
            ends = list(itertools.accumulate(per_dest))
            # staggered all-to-all: sender s starts at joiner s so
            # concurrent senders hit distinct receiver NICs
            for jj in range(n_j):
                j = (jj + s) % n_j
                batch_records = sum(per_dest[j * n_b:(j + 1) * n_b])
                if batch_records == 0:
                    continue
                yield from self._ship_batch(
                    s, j, batch_records * record_size, shipped
                )
                for b in range(n_b):
                    d = j * n_b + b
                    cnt = per_dest[d]
                    if cnt == 0:
                        continue
                    rows = routed.take(slice(ends[d] - cnt, ends[d]))
                    commits.append((j, b, cnt, cnt * record_size, rows))
        else:
            # model-only: even h1/h2 split with remainder spread;
            # same staggered all-to-all order as the functional path
            base, rem = divmod(desc.num_records, n_j)
            for jj in range(n_j):
                j = (jj + s) % n_j
                batch_records = base + (1 if j < rem else 0)
                if batch_records == 0:
                    continue
                yield from self._ship_batch(
                    s, j, batch_records * record_size, shipped
                )
                bbase, brem = divmod(batch_records, n_b)
                for b in range(n_b):
                    cnt = bbase + (1 if b < brem else 0)
                    commits.append((j, b, cnt, cnt * record_size, None))
        for j, b, cnt, nbytes, data in commits:
            self.bucket_records[j][side][b] += cnt
            self.bucket_bytes[j][side][b] += nbytes
            if data is not None:
                bucket_data[j][side][b].append(data)

    def _ship_batch(self, s: int, j: int, nbytes: int, shipped: list):
        """Send one record batch and post its remote bucket write.

        The sender waits for the wire transfer (it owns the sending
        thread) but *not* for the receiver's disk write — senders
        double-buffer.  The write still occupies the receiver's NIC and
        scratch disk (the single-threaded receiving QES cannot drain its
        NIC while writing), so per-joiner ingest remains additive
        (``Transfer + Write``) exactly as the cost model has it; the
        asynchrony only removes sender-side convoy bubbles.

        Transient transfer faults are retried in place with exponential
        backoff; a persistent streak beyond ``plan.max_attempts`` raises
        :class:`UnrecoverableFault` (unlike a node crash there is no
        replica to fail over to — the sender itself is healthy).  A
        :class:`StorageNodeDown` propagates to the streamer, which aborts
        the chunk.
        """
        cluster, tel, report = self.cluster, self.tel, self.report
        injector = cluster.faults
        pb = report.per_joiner[j]
        rec = report.recovery
        attempt = 0
        while True:
            attempt += 1
            t0 = cluster.engine.now
            tspan = None
            if tel is not None:
                tspan = tel.recorder.begin(
                    "transfer",
                    category="transfer",
                    node=f"storage{s}",
                    track=f"ship-compute{j}",
                    bytes=nbytes,
                    attempt=attempt,
                )
            try:
                yield cluster.read_and_send(s, j, nbytes)
            except TransientTransferFault:
                if tspan is not None:
                    # close before the backoff yield so retry sleep is not
                    # attributed to wire time
                    tspan.attrs["error"] = "TransientTransferFault"
                    tel.recorder.finish(tspan)
                    tspan = None
                dt = cluster.engine.now - t0
                rec.retries += 1
                rec.wasted_seconds += dt
                rec.wasted_bytes += nbytes
                plan = injector.plan
                if attempt >= plan.max_attempts:
                    raise UnrecoverableFault(
                        f"batch to joiner {j} still failing after "
                        f"{attempt} transfer attempts",
                        node=s,
                    )
                backoff = plan.retry_base * (2 ** (attempt - 1))
                if backoff > 0:
                    yield cluster.engine.timeout(backoff)
                    rec.wasted_seconds += backoff
                continue
            finally:
                # success, StorageNodeDown, or an interrupt: the wire
                # activity for this attempt ends now
                if tspan is not None and tspan.end is None:
                    tel.recorder.finish(tspan)
            dt = cluster.engine.now - t0
            pb.transfer += dt
            pb.stall += dt  # GH never overlaps: the QES thread waits per batch
            write_ev = cluster.ingest_write(j, nbytes)
            joiner = cluster.joiner(j)
            if joiner.has_local_disk:
                # the Write term: the scratch time this write reserved
                pb.scratch_write += joiner.write_seconds(nbytes)
            if tel is not None:
                # the receiver-side write is fire-and-forget: a detached
                # span under the partition phase, causally linked to the
                # sender's transfer and closed when the write event fires
                wspan = tel.recorder.begin(
                    "bucket-write",
                    category="scratch-write",
                    node=f"compute{j}",
                    track=f"ingest{j}",
                    parent=self.pspan,
                    detached=True,
                    bytes=nbytes,
                )
                tel.recorder.link(wspan, tspan)
                tel.span_until(write_ev, wspan)
            self.pending_writes[j] = write_ev
            report.bytes_from_storage += nbytes
            report.bytes_scratch_written += nbytes
            if tel is not None:
                tel.metrics.counter("op.transfer.bytes").inc(nbytes)
                tel.metrics.counter("op.partition-write.bytes").inc(nbytes)
            shipped[0] += nbytes
            return

    # -- phase 2: local bucket joins ----------------------------------------------------

    def _bucket_joiner(self, j: int):
        """Join joiner ``j``'s bucket pairs one by one, node-locally:
        read both buckets off scratch, build on the left, probe with the
        right."""
        cluster, tel, report = self.cluster, self.tel, self.report
        n_b = self.num_buckets
        bucket_bytes, bucket_records = self.bucket_bytes[j], self.bucket_records[j]
        bucket_data, results = self.bucket_data, self.results
        pb = report.per_joiner[j]
        jspan = None
        if tel is not None:
            jspan = tel.recorder.begin(
                f"join-buckets{j}",
                category="control",
                node=f"compute{j}",
                track="join",
                parent=self.spans[0],
                joiner=j,
                buckets=n_b,
            )
        try:
            for b in range(n_b):
                lbytes, rbytes = bucket_bytes[0][b], bucket_bytes[1][b]
                lrecs, rrecs = bucket_records[0][b], bucket_records[1][b]
                if lrecs == 0 and rrecs == 0:
                    continue
                tb = cluster.engine.now

                t0 = cluster.engine.now
                with maybe_span(
                    tel, "bucket-read", category="scratch-read",
                    node=f"compute{j}", track="join", bucket=b,
                    bytes=lbytes + rbytes,
                ):
                    yield cluster.scratch_read(j, lbytes + rbytes)
                pb.scratch_read += cluster.engine.now - t0
                report.bytes_scratch_read += lbytes + rbytes
                if tel is not None:
                    tel.metrics.counter("op.bucket-read.bytes").inc(lbytes + rbytes)

                yield from self._charge_cpu("build", j, lrecs, "join", bucket=b)
                yield from self._charge_cpu("probe", j, rrecs, "join", bucket=b)

                if tel is not None:
                    tel.metrics.histogram("gh.bucket_seconds").observe(
                        cluster.engine.now - tb
                    )

                if results is not None and lrecs and rrecs:
                    left_bucket = concat_subtables(
                        bucket_data[j][0][b], id=SubTableId(self.left.table_id, b)
                    )
                    right_bucket = concat_subtables(
                        bucket_data[j][1][b], id=SubTableId(self.right.table_id, b)
                    )
                    out, ks = vectorized_hash_join(
                        left_bucket,
                        right_bucket,
                        self.on,
                        result_id=SubTableId(-1, j * n_b + b),
                    )
                    report.kernel.matches += ks.matches
                    if out.num_records:
                        results[j].append(out)
        finally:
            if jspan is not None and jspan.end is None:
                tel.recorder.finish(jspan)
