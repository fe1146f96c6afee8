"""Extractor functions and their registry.

"An extractor function reads a file segment (also called a chunk) and
generates a set of objects or a set of tuples (i.e., an object-relational
sub-table)" — Section 1.  Extractors are the interpretation layer between
raw chunk bytes and the table view a Basic Data Source exposes.

Each chunk's metadata lists the *names* of the extractors able to parse it;
:class:`ExtractorRegistry` resolves those names.  Extractors are either
hand-written subclasses of :class:`Extractor` or compiled from a layout
descriptor via :func:`build_extractor` (the automatic-generation path of
Weng et al. [17]).

Either kind answers the two calls the BDS's one read path makes —
``column_ranges`` (which bytes do these columns need?) and ``extract``
(decode those bytes into those columns); a hand-written extractor that
only knows how to parse a whole chunk inherits "the whole chunk" for the
first and narrows its result with ``projected_schema`` in the second.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.schema import Schema
from repro.datamodel.subtable import SubTable, SubTableId
from repro.storage.descriptor import LayoutDescriptor, parse_layout_descriptor
from repro.storage.layout import ChunkLayout

__all__ = ["Extractor", "DescribedExtractor", "ExtractorRegistry", "build_extractor"]


class Extractor:
    """Interprets raw chunk bytes as a sub-table.

    Subclasses provide ``name``, ``schema`` and :meth:`extract`.  An
    extractor that can tell which bytes a column lives in also overrides
    :meth:`column_ranges`; one that cannot is handed the whole chunk and
    honours ``columns`` by parsing everything and keeping the named
    attributes.  The base class also exposes :meth:`encode` so dataset
    writers can produce chunks an extractor is guaranteed to round-trip
    (not all extractors must support writing; read-only ones may leave
    ``encode`` unimplemented).
    """

    name: str = ""
    schema: Schema

    def column_ranges(
        self, names: Optional[Sequence[str]], chunk_size: int
    ) -> List[Tuple[int, int]]:
        """Chunk-relative ``(offset, size)`` byte ranges :meth:`extract`
        needs to produce the named columns (``None``: every column), in
        the order it expects them concatenated.  Default: the whole chunk."""
        return [(0, chunk_size)]

    def extract(
        self,
        raw: bytes,
        id: SubTableId,
        bbox: Optional[BoundingBox] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> SubTable:
        """Parse ``raw`` into the sub-table identified by ``id``.

        ``raw`` is the concatenation of the bytes ``column_ranges(columns,
        ...)`` named, and the result holds exactly the named attributes in
        schema order (:meth:`projected_schema`), whatever order they were
        asked for in; ``columns=None`` is every attribute.  ``bbox`` is the
        chunk's metadata bounding box; when provided it is attached to the
        sub-table so downstream consumers (join index, range pruning) avoid
        rescanning the data.
        """
        raise NotImplementedError

    def projected_schema(self, columns: Optional[Sequence[str]]) -> Schema:
        """Schema of the sub-table a read of ``columns`` returns."""
        if columns is None:
            return self.schema
        wanted = set(columns)
        return self.schema.project([n for n in self.schema.names if n in wanted])

    def encode(self, subtable: SubTable) -> bytes:
        """Serialise a sub-table into chunk bytes this extractor can parse."""
        raise NotImplementedError(f"extractor {self.name!r} is read-only")


class DescribedExtractor(Extractor):
    """Extractor compiled from a :class:`LayoutDescriptor`."""

    def __init__(self, descriptor: LayoutDescriptor):
        self.descriptor = descriptor
        self.name = descriptor.name
        self.schema = descriptor.schema
        self._layout: ChunkLayout = descriptor.layout()

    def column_ranges(
        self, names: Optional[Sequence[str]], chunk_size: int
    ) -> List[Tuple[int, int]]:
        return self._layout.column_ranges(self.schema, names, chunk_size)

    def extract(
        self,
        raw: bytes,
        id: SubTableId,
        bbox: Optional[BoundingBox] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> SubTable:
        schema = self.projected_schema(columns)
        return SubTable(
            id, schema, self._layout.deserialize(raw, self.schema, columns), bbox=bbox
        )

    def encode(self, subtable: SubTable) -> bytes:
        if subtable.schema != self.schema:
            raise ValueError(
                f"sub-table schema {subtable.schema} does not match "
                f"extractor schema {self.schema}"
            )
        return self._layout.serialize(
            {n: subtable.column(n) for n in self.schema.names}, self.schema
        )


def build_extractor(descriptor: LayoutDescriptor | str) -> DescribedExtractor:
    """Compile a descriptor (or descriptor text containing exactly one
    ``layout`` block) into a working extractor."""
    if isinstance(descriptor, str):
        parsed = parse_layout_descriptor(descriptor)
        if len(parsed) != 1:
            raise ValueError(
                f"expected exactly one layout block, found {len(parsed)}"
            )
        descriptor = parsed[0]
    return DescribedExtractor(descriptor)


class ExtractorRegistry:
    """Name → extractor resolution, as used by chunk metadata.

    The registry also resolves a chunk's extractor *list*: metadata may name
    several extractors able to parse the same chunk, and
    :meth:`resolve_first` returns the first one that is actually registered
    on this node (different nodes may have different extractor sets
    installed).
    """

    def __init__(self, extractors: Iterable[Extractor] = ()):
        self._extractors: Dict[str, Extractor] = {}
        for e in extractors:
            self.register(e)

    def register(self, extractor: Extractor) -> Extractor:
        if not extractor.name:
            raise ValueError("extractor has no name")
        if extractor.name in self._extractors and self._extractors[extractor.name] is not extractor:
            raise ValueError(f"extractor name {extractor.name!r} already registered")
        self._extractors[extractor.name] = extractor
        return extractor

    def resolve_first(self, names: Iterable[str]) -> Extractor:
        """First registered extractor out of a chunk's extractor list."""
        names = list(names)
        for name in names:
            if name in self._extractors:
                return self._extractors[name]
        raise KeyError(f"none of the extractors {names} are registered")

    def __contains__(self, name: str) -> bool:
        return name in self._extractors

    def __len__(self) -> int:
        return len(self._extractors)
