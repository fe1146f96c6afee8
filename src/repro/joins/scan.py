"""The range-scan QES (Section 4).

"The MetaData Service may be queried using the range part of the query to
retrieve ids of all matching sub-tables ... the BDS is asked to generate
each of the sub-tables", which the Caching Service then stores: a range
query walks the same services as a join, so it is the same kind of
object — one execution on the :class:`~repro.joins.qes.QES` base, whose
driver *is* the scan.  No workers, no schedule.  A scan given caches (the
query server's) goes through them; a standalone one (a base-table
SELECT) streams: a scan reads each chunk once, so a cache of its own
could only miss.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, List, Optional, Sequence

from repro.cluster.cluster import ClusterSim
from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.subtable import SubTable, bbox_mask
from repro.faults.errors import UnrecoverableFault
from repro.joins.qes import QES
from repro.metadata.service import MetaDataService
from repro.services.bds import SubTableProvider
from repro.services.cache import CachingService
from repro.telemetry.spans import maybe_span

__all__ = ["ScanQES"]


class ScanQES(QES):
    """One range scan of one table, streamed to one compute node.

    Parameters beyond those of :class:`~repro.joins.qes.QES`:

    table:
        Table key (id or name).
    where:
        The range part of the query; an empty box selects every record.
    compute:
        The compute node the chunks stream to — or, when a fault plan
        has already killed it, the next surviving one.  The scan dies
        with the node it streams to.
    chunks:
        The chunks the range part keeps, when a planner has already found
        them; asked of the MetaData Service when omitted.
    caches:
        Per-compute-node Caching Service instances, as for the Indexed
        Join: chunks a previous execution left there are hits.  Without
        them the scan streams: every chunk is a transfer, the same
        transfers and events a fresh cache would miss into, and nothing
        outlives the chunk in hand but what ``sink`` keeps of it.
    columns:
        The attributes to fetch (``None``: all of them).  Refused together
        with ``caches``: a projected entry under a chunk's id would be
        read back as the whole chunk by whoever shares the cache.
    sink:
        Where a functional scan hands each chunk as it arrives, in chunk
        order; the scan then keeps and counts nothing itself.  Without
        one it counts the records inside ``where``.
    """

    algorithm = "scan"
    driver_name = "scan-driver"

    def __init__(
        self,
        cluster: ClusterSim,
        metadata: MetaDataService,
        table: int | str,
        where: BoundingBox,
        provider: SubTableProvider,
        compute: int = 0,
        chunks: Optional[Sequence[ChunkDescriptor]] = None,
        caches: Optional[List[CachingService]] = None,
        columns: Optional[Sequence[str]] = None,
        sink: Optional[Callable[[SubTable], None]] = None,
        sanitizer=None,
        contain_faults: bool = False,
    ):
        if columns is not None and caches is not None:
            raise ValueError("a projected scan cannot share caches (columns= with caches=)")
        super().__init__(
            cluster, metadata, provider,
            sanitizer=sanitizer, contain_faults=contain_faults,
        )
        self.table = metadata.table(table)
        self.where = where
        if not 0 <= compute < cluster.num_compute:
            raise ValueError(
                f"compute node {compute} outside a cluster of {cluster.num_compute}"
            )
        self.compute = compute
        self.chunks = tuple(
            chunks if chunks is not None else self.table.find_chunks(where)
        )
        self.caches = caches
        self.columns = columns
        self.sink = sink

    def _query_attrs(self):
        return {"table": self.table.name, "chunks": len(self.chunks)}

    def _start(self) -> None:
        #: records inside ``where`` so far (functional runs without a sink)
        self.selected = 0

    def _driver(self):
        """The scan: every chunk through the target node's cache when it
        has one, each miss a real simulated transfer (the Indexed Join's
        own fetch-with-recovery), all pins under one scope — an abort or
        node death mid-scan releases them as it unwinds.  A functional run
        hands each chunk to ``sink`` as it arrives, or else counts the
        records inside the box chunk by chunk, without a filtered copy,
        masking only the chunks whose stored bounds cross the box: a
        chunk inside it counts whole."""
        cluster = self.cluster
        injector = cluster.faults
        j = self.compute
        if injector is not None:
            n = cluster.num_compute
            alive = [
                s for s in ((j + k) % n for k in range(n))
                if not injector.compute_is_dead(s)
            ]
            if not alive:
                raise UnrecoverableFault("no surviving compute node for scan", node=j)
            j = alive[0]
            # the scan dies with its compute node, like a joiner would
            injector.register_compute(j, self.process)
        cache = None if self.caches is None else self.caches[j]
        provider, columns, sink = self.provider, self.columns, self.sink
        functional = provider.functional
        with maybe_span(
            self.tel, f"scan{j}", category="control", node=f"compute{j}",
            track="qes", parent=self.spans[0] if self.spans else None,
        ), nullcontext() if cache is None else cache.pin_scope() as scope:
            for desc in self.chunks:
                value = None if scope is None else scope.acquire(desc.id)
                if value is None:
                    node = yield from self._transfer_with_recovery(
                        j, desc, None, None
                    )
                    value = provider.fetch(desc, columns=columns, node=node)
                    if scope is not None:
                        scope.put(desc.id, value, desc.size, pin=True, source=node)
                if not functional:
                    continue
                if sink is not None:
                    sink(value)
                elif self.where.contains_box(desc.bbox):
                    # every record of the chunk lies inside its bounds
                    self.selected += value.num_records
                else:
                    self.selected += int(bbox_mask(value, self.where).sum())
        # capture before returning: pending fault timers may advance the
        # clock after the scan is already complete
        self.report.total_time = cluster.engine.now

    def _fill(self) -> None:
        if self.report.functional and self.sink is None:
            self.report.extras["selected_records"] = float(self.selected)
