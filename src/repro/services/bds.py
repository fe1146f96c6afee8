"""Basic Data Source Service.

"The role of the Basic Data Source Service is to provide a table view over
the application-specific data chunks of a dataset.  BDS_i provides a
virtual table T_i and is associated with a set of the data chunks.  BDS_i,
upon receipt of a chunk id j, produces a basic sub-table identified by an
id (i, j).  BDS instances execute on storage nodes and accept requests for
sub-tables corresponding to local chunks." — Section 4.

:class:`BasicDataSourceService` is that per-storage-node instance.  On top
of it sit the two :class:`SubTableProvider` strategies the QES
implementations consume:

* :class:`FunctionalProvider` — resolves a chunk descriptor to its storage
  node's BDS and returns the real, parsed sub-table;
* :class:`StubProvider` — returns size-only stubs, enabling model-only
  simulation of datasets too large to materialise.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Mapping, Optional

from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.subtable import SubTable, SubTableStub
from repro.storage.chunkstore import ChunkStore
from repro.storage.extractor import ExtractorRegistry

__all__ = [
    "BasicDataSourceService",
    "SubTableProvider",
    "FunctionalProvider",
    "StubProvider",
]


class BasicDataSourceService:
    """One BDS instance: a storage node's chunk store plus its extractors.

    ``bytes_read`` counts the chunk bytes this instance actually read: the
    summed sizes of the ranges each request's extractor named — with
    ``columns=...`` against a layout that can skip bytes, substantially
    less than the chunk sizes served; otherwise exactly the chunk sizes.
    """

    def __init__(
        self,
        storage_node: int,
        store: ChunkStore,
        extractors: ExtractorRegistry,
    ):
        if store.node_id != storage_node:
            raise ValueError(
                f"chunk store belongs to node {store.node_id}, BDS is node {storage_node}"
            )
        self.storage_node = storage_node
        self.store = store
        self.extractors = extractors
        self.bytes_read = 0

    def produce_subtable(
        self, desc: ChunkDescriptor, columns: Optional[Iterable[str]] = None
    ) -> SubTable:
        """Read, parse and return the basic sub-table for ``desc``.

        Only chunks local to this BDS's storage node are served, matching
        the paper's placement of BDS instances.  There is one path: the
        extractor names the byte ranges the wanted columns need (the whole
        chunk when its layout cannot skip bytes), the store reads them, the
        extractor decodes them.  A full read (``columns=None``) is the same
        path over every column.
        """
        if desc.ref.storage_node != self.storage_node:
            raise ValueError(
                f"chunk {desc.id} lives on node {desc.ref.storage_node}; this BDS "
                f"serves node {self.storage_node}"
            )
        extractor = self.extractors.resolve_first(desc.extractors)
        names = None if columns is None else list(columns)
        unknown = sorted({n for n in names or () if n not in extractor.schema})
        if unknown:
            raise KeyError(f"columns not in chunk schema: {unknown}")
        data = self.store.read_ranges(
            desc.ref, extractor.column_ranges(names, desc.size)
        )
        self.bytes_read += len(data)
        return extractor.extract(data, desc.id, bbox=desc.bbox, columns=names)


class SubTableProvider:
    """Strategy interface: descriptor → sub-table (real or stub)."""

    #: Whether :meth:`fetch` returns real data (drives result assembly).
    functional: bool = False

    def fetch(
        self,
        desc: ChunkDescriptor,
        columns: Optional[Iterable[str]] = None,
        node: Optional[int] = None,
    ) -> SubTable | SubTableStub:
        """Resolve ``desc`` to a sub-table.

        ``node`` selects which replica serves the request (defaults to the
        primary); it must be one of the descriptor's hosting nodes.
        """
        raise NotImplementedError


class FunctionalProvider(SubTableProvider):
    """Fetch real sub-tables from per-node BDS instances."""

    functional = True

    def __init__(self, bds_instances: Mapping[int, BasicDataSourceService] | Iterable[BasicDataSourceService]):
        if isinstance(bds_instances, Mapping):
            self._bds: Dict[int, BasicDataSourceService] = dict(bds_instances)
        else:
            self._bds = {b.storage_node: b for b in bds_instances}
        if not self._bds:
            raise ValueError("need at least one BDS instance")

    @property
    def bytes_read(self) -> int:
        """Total chunk bytes touched across all BDS instances."""
        return sum(b.bytes_read for b in self._bds.values())

    def fetch(
        self,
        desc: ChunkDescriptor,
        columns: Optional[Iterable[str]] = None,
        node: Optional[int] = None,
    ) -> SubTable:
        if node is not None and node != desc.ref.storage_node:
            # serve from the replica hosted on `node`: same chunk id and
            # bytes, different file location
            desc = replace(desc, ref=desc.ref_on(node), replicas=())
        node = desc.ref.storage_node
        try:
            bds = self._bds[node]
        except KeyError:
            raise KeyError(
                f"no BDS instance for storage node {node} (have {sorted(self._bds)})"
            ) from None
        return bds.produce_subtable(desc, columns=columns)


class StubProvider(SubTableProvider):
    """Fabricate size-only stubs straight from chunk metadata.

    ``record_size`` falls back to ``desc.size / desc.num_records`` so stubs
    carry the exact byte counts the resource accounting needs.
    """

    functional = False

    def fetch(
        self,
        desc: ChunkDescriptor,
        columns: Optional[Iterable[str]] = None,
        node: Optional[int] = None,
    ) -> SubTableStub:
        if desc.num_records > 0:
            record_size = desc.size // desc.num_records
        else:
            record_size = 0
        return SubTableStub(
            id=desc.id,
            num_records=desc.num_records,
            record_size=record_size,
            bbox=desc.bbox,
        )
