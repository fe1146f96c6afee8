"""Dataset writer: partitions → serialised chunks → placed + described.

The writer plays the role of the parallel simulation's output stage: it
takes a stream of table partitions (column blocks with bounding boxes),
serialises each through an extractor's layout, appends it to the chosen
storage node's chunk store, and emits the
:class:`~repro.datamodel.chunk.ChunkDescriptor` records the MetaData Service
will ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.schema import Schema
from repro.datamodel.subtable import SubTable, SubTableId
from repro.storage.chunkstore import ChunkStore
from repro.storage.extractor import Extractor
from repro.storage.placement import BlockCyclicPlacement, PlacementPolicy

__all__ = ["DatasetWriter", "WrittenTable", "TablePartition"]


@dataclass(frozen=True)
class TablePartition:
    """One partition to be written: columns plus (optionally) known bounds.

    When ``bbox`` is omitted the writer computes exact bounds from the data
    — fine for synthetic generators; real simulation outputs would supply
    the bounds their partitioner already knows.
    """

    columns: Mapping[str, np.ndarray]
    bbox: Optional[BoundingBox] = None


@dataclass
class WrittenTable:
    """Everything produced by writing one table."""

    table_id: int
    schema: Schema
    extractor_name: str
    chunks: List[ChunkDescriptor] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        return sum(c.num_records for c in self.chunks)

    @property
    def nbytes(self) -> int:
        return sum(c.size for c in self.chunks)


class DatasetWriter:
    """Writes tables into a group of chunk stores.

    Parameters
    ----------
    stores:
        One :class:`ChunkStore` per storage node, indexed by node id.
    placement:
        Chunk→node policy; defaults to block-cyclic over all stores, the
        paper's distribution.
    """

    def __init__(
        self,
        stores: Sequence[ChunkStore],
        placement: Optional[PlacementPolicy] = None,
    ):
        if not stores:
            raise ValueError("need at least one chunk store")
        for i, s in enumerate(stores):
            if s.node_id != i:
                raise ValueError(
                    f"store at position {i} has node_id {s.node_id}; stores must "
                    "be indexed by node id"
                )
        self.stores = list(stores)
        self.placement = placement or BlockCyclicPlacement(len(stores))
        if self.placement.num_nodes > len(stores):
            raise ValueError(
                f"placement spans {self.placement.num_nodes} nodes but only "
                f"{len(stores)} stores supplied"
            )

    def write_table(
        self,
        table_id: int,
        extractor: Extractor,
        partitions: Iterable[TablePartition],
        extra_extractors: Tuple[str, ...] = (),
        replication: int = 1,
    ) -> WrittenTable:
        """Serialise and place every partition of ``table_id``.

        Chunk ids are assigned in emission order (0, 1, ...), matching the
        regular-partitioning assumption of the cost models: chunk id order
        is the row-major order of the partition grid.

        With ``replication=k`` each chunk's encoded bytes are appended to
        ``k`` distinct stores (placement policy chooses which); the first
        copy is the primary, the rest go into the descriptor's
        ``replicas`` so reads can fail over.
        """
        partitions = list(partitions)
        total = len(partitions)
        schema = extractor.schema
        written = WrittenTable(
            table_id=table_id,
            schema=schema,
            extractor_name=extractor.name,
        )
        extractor_names = (extractor.name, *extra_extractors)
        for ordinal, part in enumerate(partitions):
            sub = SubTable(
                SubTableId(table_id, ordinal), schema, part.columns, bbox=part.bbox
            )
            data = extractor.encode(sub)
            nodes = self.placement.replicas_for(ordinal, total, replication)
            refs = [self.stores[node].append(table_id, data) for node in nodes]
            written.chunks.append(
                ChunkDescriptor(
                    id=sub.id,
                    ref=refs[0],
                    attributes=schema.names,
                    extractors=extractor_names,
                    bbox=sub.bbox,
                    num_records=sub.num_records,
                    replicas=tuple(refs[1:]),
                )
            )
        return written
