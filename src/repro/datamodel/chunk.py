"""Chunk descriptors — the metadata record for one file segment.

Section 2: "Metadata information associated with each chunk includes
information about which table the chunk belongs to, the location of the chunk
in the storage system (i.e., offset in data file) and its size, what
attributes it contains, a list of extractors that can read and parse this
chunk, and the bounding box of the chunk."

:class:`ChunkDescriptor` carries exactly those fields (plus the record count,
which the writer knows and the cost models want), and :class:`ChunkRef` is
the lightweight ``(table_id, chunk_id)``-plus-placement handle passed between
services.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.subtable import SubTableId

__all__ = ["ChunkRef", "ChunkDescriptor"]


@dataclass(frozen=True, order=True)
class ChunkRef:
    """Where a chunk lives: which storage node, which file, what range."""

    storage_node: int
    path: str
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.storage_node < 0:
            raise ValueError("storage_node must be >= 0")
        if self.offset < 0 or self.size < 0:
            raise ValueError("offset and size must be >= 0")


@dataclass(frozen=True)
class ChunkDescriptor:
    """Full MetaData Service record for one chunk.

    ``ref`` is the primary copy; ``replicas`` lists additional full copies
    on other storage nodes (empty without replication).  Readers normally
    serve from the primary and fail over to replicas when its node dies.
    """

    id: SubTableId
    ref: ChunkRef
    attributes: Tuple[str, ...]
    extractors: Tuple[str, ...]
    bbox: BoundingBox
    num_records: int
    replicas: Tuple[ChunkRef, ...] = ()

    def __post_init__(self) -> None:
        if self.num_records < 0:
            raise ValueError("num_records must be >= 0")
        if not self.extractors:
            raise ValueError(f"chunk {self.id} lists no usable extractor")
        nodes = [self.ref.storage_node] + [r.storage_node for r in self.replicas]
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"chunk {self.id}: replica nodes must be distinct")

    @property
    def all_refs(self) -> Tuple[ChunkRef, ...]:
        """Primary first, then replicas — the failover order."""
        return (self.ref,) + self.replicas

    def ref_on(self, node: int) -> ChunkRef:
        """The copy of this chunk hosted on storage node ``node``."""
        for r in self.all_refs:
            if r.storage_node == node:
                return r
        raise KeyError(f"chunk {self.id} has no copy on storage node {node}")

    @property
    def table_id(self) -> int:
        return self.id.table_id

    @property
    def chunk_id(self) -> int:
        return self.id.chunk_id

    @property
    def size(self) -> int:
        """On-disk size in bytes (the I/O unit the BDS reads)."""
        return self.ref.size
