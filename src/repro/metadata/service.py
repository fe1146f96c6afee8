"""The MetaData Service: chunk catalogs, range queries, a key-value store.

Per Section 4, the service stores for every chunk "which table the chunk
belongs to, the location of the chunk in the storage system ... and its
size, what attributes it contains, a list of extractors that can read and
parse this chunk, and the bounding box of the chunk", and answers the range
part of queries "efficiently using index structures such as R-Trees".

Each registered table gets a :class:`TableCatalog` holding its chunk
descriptors plus an R-tree over the chunk bounding boxes projected onto the
table's coordinate attributes.  The service also provides the generic
key-value store other services use for state that outlives a query: the
planner keeps each precomputed page-level join index there, as the built
object itself (DESIGN.md §3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.schema import Schema
from repro.datamodel.subtable import SubTableId
from repro.metadata.rtree import RTree
from repro.storage.writer import WrittenTable

__all__ = ["MetaDataService", "TableCatalog"]


@dataclass
class TableCatalog:
    """All metadata for one virtual table."""

    table_id: int
    name: str
    schema: Schema
    chunks: Dict[int, ChunkDescriptor] = field(default_factory=dict)
    _rtree: Optional[RTree] = field(default=None, repr=False)

    @property
    def coordinate_names(self) -> Tuple[str, ...]:
        return self.schema.coordinate_names

    @property
    def num_records(self) -> int:
        """Total records — ``T`` of the cost models (per table)."""
        return sum(c.num_records for c in self.chunks.values())

    @property
    def nbytes(self) -> int:
        return sum(c.size for c in self.chunks.values())

    def add_chunk(self, desc: ChunkDescriptor) -> None:
        if desc.table_id != self.table_id:
            raise ValueError(
                f"chunk {desc.id} belongs to table {desc.table_id}, catalog is "
                f"table {self.table_id}"
            )
        if desc.chunk_id in self.chunks:
            raise ValueError(f"duplicate chunk id {desc.id}")
        self.chunks[desc.chunk_id] = desc
        self._rtree = None  # repacked, in chunk order, at the next search

    def _ensure_index(self) -> RTree:
        if self._rtree is None:
            names = self.coordinate_names
            if not names:
                raise ValueError(
                    f"table {self.name!r} has no coordinate attributes to index on"
                )
            tree = RTree(ndim=len(names))
            # inserted in chunk order, which is the order search answers in
            for _, desc in sorted(self.chunks.items()):
                tree.insert(desc.bbox.bounds(names), desc)
            self._rtree = tree
        return self._rtree

    def find_chunks(self, query: BoundingBox) -> List[ChunkDescriptor]:
        """Chunks whose bounding boxes intersect ``query``, in chunk order.

        The R-tree prunes on coordinate attributes; any non-coordinate
        bounds in ``query`` are applied as a refinement filter against the
        full chunk bounding boxes (chunk bboxes bound scalar attributes
        too — see Figure 1).
        """
        names = self.coordinate_names
        out = self._ensure_index().search(query.bounds(names))
        # the R-tree's entry test is the exact closed-interval one on every
        # coordinate; only what it did not see is left to refine on
        rest = [n for n in query if n not in names]
        if rest:
            out = [c for c in out if c.bbox.overlaps(query, on=rest)]
        return out

    def all_chunks(self) -> List[ChunkDescriptor]:
        return [self.chunks[k] for k in sorted(self.chunks)]


class MetaDataService:
    """Registry of table catalogs plus a generic persistent key-value store."""

    def __init__(self) -> None:
        self._by_id: Dict[int, TableCatalog] = {}
        self._by_name: Dict[str, int] = {}
        self._kv: Dict[str, object] = {}

    # -- table registration -----------------------------------------------------

    def register_table(
        self, table_id: int, name: str, schema: Schema
    ) -> TableCatalog:
        if table_id in self._by_id:
            raise ValueError(f"table id {table_id} already registered")
        if name in self._by_name:
            raise ValueError(f"table name {name!r} already registered")
        catalog = TableCatalog(table_id=table_id, name=name, schema=schema)
        self._by_id[table_id] = catalog
        self._by_name[name] = table_id
        return catalog

    def register_written_table(self, name: str, written: WrittenTable) -> TableCatalog:
        """Convenience: register a table straight from a writer result."""
        catalog = self.register_table(written.table_id, name, written.schema)
        for chunk in written.chunks:
            catalog.add_chunk(chunk)
        return catalog

    # -- lookup ---------------------------------------------------------------------

    def table(self, key: int | str) -> TableCatalog:
        if isinstance(key, str):
            if key not in self._by_name:
                raise KeyError(f"no table named {key!r} (known: {sorted(self._by_name)})")
            key = self._by_name[key]
        try:
            return self._by_id[key]
        except KeyError:
            raise KeyError(f"no table with id {key}") from None

    def chunk(self, id: SubTableId) -> ChunkDescriptor:
        catalog = self.table(id.table_id)
        try:
            return catalog.chunks[id.chunk_id]
        except KeyError:
            raise KeyError(f"no chunk {id} in table {catalog.name!r}") from None

    def chunks_on_node(self, table: int | str, storage_node: int) -> List[ChunkDescriptor]:
        """Chunks of ``table`` that live on ``storage_node`` (what a local
        BDS instance may serve)."""
        return [
            c
            for c in self.table(table).all_chunks()
            if c.ref.storage_node == storage_node
        ]

    # -- generic key-value store -------------------------------------------------------

    def put(self, key: str, value: object) -> None:
        """Store any object as service state under ``key``; a later
        ``get`` returns that same object, not a copy."""
        self._kv[key] = value

    def get(self, key: str, default: object = None) -> object:
        return self._kv.get(key, default)
