"""Binary chunk layouts.

A chunk is a contiguous run of bytes inside a data file with *no*
self-description — all structure lives in the MetaData Service.  Different
simulation codes emit different physical arrangements of the same logical
records; the three layouts here cover the arrangements parallel simulation
outputs commonly use:

* :class:`RowMajorLayout` — records interleaved (``x0 y0 z0 p0 x1 y1 ...``),
  the natural output of a per-cell writer.
* :class:`ColumnMajorLayout` — one contiguous array per attribute
  (``x0..xn y0..yn ...``), the natural output of an array-language dump.
* :class:`InterleavedBlockLayout` — column-major within fixed-size record
  blocks, the arrangement produced by buffered parallel writers.

All layouts are loss-free and vectorised: (de)serialisation is NumPy
reshaping/view work, never per-record Python loops.

Reading is one contract, and a full read is its projection onto every
column: ``column_ranges(schema, names, size)`` names the bytes the wanted
columns need — only theirs for the two columnar layouts, the whole chunk
for layouts that cannot skip bytes — and ``deserialize(data, schema,
names)`` decodes exactly those bytes into exactly those columns.  Every
returned array is a writable copy the caller owns.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.schema import Attribute, Schema

__all__ = [
    "ChunkLayout",
    "RowMajorLayout",
    "ColumnMajorLayout",
    "InterleavedBlockLayout",
    "layout_by_name",
    "register_layout",
]


class ChunkLayout:
    """Strategy interface for chunk (de)serialisation."""

    #: Registry key; subclasses must override.
    name: str = ""

    def serialize(self, columns: Mapping[str, np.ndarray], schema: Schema) -> bytes:
        """Encode the given columns (all of equal length, schema order
        authoritative) into chunk bytes."""
        raise NotImplementedError

    def column_ranges(
        self, schema: Schema, names: "Optional[Sequence[str]]", chunk_size: int
    ) -> "List[Tuple[int, int]]":
        """Byte ranges a read of the given columns has to touch.

        Ranges are ``(offset, size)`` pairs relative to the chunk start,
        ordered so that :meth:`deserialize` can decode their concatenation;
        ``names=None`` asks for every column.  A layout that stores columns
        contiguously names only the wanted columns' bytes — a 21-attribute
        chunk queried for two attributes reads ~10% of its bytes.  A layout
        that cannot skip bytes keeps this default: the whole chunk.
        """
        return [(0, chunk_size)]

    def deserialize(
        self, data: bytes, schema: Schema, names: "Optional[Sequence[str]]" = None
    ) -> Dict[str, np.ndarray]:
        """Decode the bytes ``column_ranges(schema, names, ...)`` names into
        one array per named attribute (every attribute for ``None``)."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _select(schema: Schema, names: "Optional[Sequence[str]]") -> Tuple[Attribute, ...]:
        """The attributes ``names`` picks, in schema order (every one for
        ``None``); naming a column the schema does not have is an error."""
        if names is None:
            return schema.attributes
        wanted = set(names)
        unknown = sorted(n for n in wanted if n not in schema)
        if unknown:
            raise KeyError(f"columns not in schema: {unknown}")
        return tuple(a for a in schema if a.name in wanted)

    def _num_records(self, size: int, attrs: "Schema | Sequence[Attribute]") -> int:
        """How many records of ``attrs`` fill ``size`` bytes exactly."""
        rs = sum(a.itemsize for a in attrs)
        if not rs or size % rs:
            raise ValueError(
                f"chunk size {size} is not a multiple of record size {rs} "
                f"for columns {[a.name for a in attrs]} (layout {self.name!r})"
            )
        return size // rs

    @staticmethod
    def _check_columns(columns: Mapping[str, np.ndarray], schema: Schema) -> int:
        lengths = set()
        for attr in schema:
            if attr.name not in columns:
                raise ValueError(f"missing column {attr.name!r}")
            lengths.add(len(columns[attr.name]))
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        return lengths.pop() if lengths else 0


class RowMajorLayout(ChunkLayout):
    """Record-interleaved layout (the classic C struct array)."""

    name = "row_major"

    def serialize(self, columns: Mapping[str, np.ndarray], schema: Schema) -> bytes:
        n = self._check_columns(columns, schema)
        out = np.empty(n, dtype=schema.to_numpy_dtype())
        for attr in schema:
            out[attr.name] = np.asarray(columns[attr.name], dtype=attr.np_dtype)
        return out.tobytes()

    def deserialize(
        self, data: bytes, schema: Schema, names: "Optional[Sequence[str]]" = None
    ) -> Dict[str, np.ndarray]:
        attrs = self._select(schema, names)
        self._num_records(len(data), schema)
        arr = np.frombuffer(data, dtype=schema.to_numpy_dtype())
        # copy out of the read-only buffer so callers own their columns
        return {a.name: np.ascontiguousarray(arr[a.name]) for a in attrs}


class ColumnMajorLayout(ChunkLayout):
    """One contiguous per-attribute array after another, in schema order."""

    name = "column_major"

    def serialize(self, columns: Mapping[str, np.ndarray], schema: Schema) -> bytes:
        self._check_columns(columns, schema)
        parts = [
            np.ascontiguousarray(columns[attr.name], dtype=attr.np_dtype).tobytes()
            for attr in schema
        ]
        return b"".join(parts)

    def column_ranges(self, schema, names, chunk_size):
        wanted = {a.name for a in self._select(schema, names)}
        if len(wanted) == len(schema):
            # every column is the whole chunk: one read, not one per column
            return super().column_ranges(schema, names, chunk_size)
        n = self._num_records(chunk_size, schema)
        ranges: List[Tuple[int, int]] = []
        offset = 0
        for attr in schema:
            nbytes = n * attr.itemsize
            if attr.name in wanted:
                ranges.append((offset, nbytes))
            offset += nbytes
        return ranges

    def deserialize(
        self, data: bytes, schema: Schema, names: "Optional[Sequence[str]]" = None
    ) -> Dict[str, np.ndarray]:
        attrs = self._select(schema, names)
        n = self._num_records(len(data), attrs)
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for attr in attrs:
            out[attr.name] = np.frombuffer(data, dtype=attr.np_dtype, count=n, offset=offset).copy()
            offset += n * attr.itemsize
        return out


class InterleavedBlockLayout(ChunkLayout):
    """Column-major within fixed-size blocks of records.

    A writer that buffers ``block_records`` records and flushes each buffer
    attribute-by-attribute produces this arrangement.  The final block may be
    short.
    """

    def __init__(self, block_records: int = 1024):
        if block_records <= 0:
            raise ValueError("block_records must be positive")
        self.block_records = int(block_records)
        self.name = f"blocked({self.block_records})"

    def serialize(self, columns: Mapping[str, np.ndarray], schema: Schema) -> bytes:
        n = self._check_columns(columns, schema)
        cols = {
            attr.name: np.ascontiguousarray(columns[attr.name], dtype=attr.np_dtype)
            for attr in schema
        }
        parts = []
        for start in range(0, n, self.block_records):
            stop = min(start + self.block_records, n)
            for attr in schema:
                parts.append(cols[attr.name][start:stop].tobytes())
        return b"".join(parts)

    def column_ranges(self, schema, names, chunk_size):
        wanted = {a.name for a in self._select(schema, names)}
        if len(wanted) == len(schema):
            # every column is the whole chunk: one read, not one per column
            return super().column_ranges(schema, names, chunk_size)
        n = self._num_records(chunk_size, schema)
        ranges: List[Tuple[int, int]] = []
        offset = 0
        for start in range(0, n, self.block_records):
            count = min(self.block_records, n - start)
            for attr in schema:
                nbytes = count * attr.itemsize
                if attr.name in wanted:
                    ranges.append((offset, nbytes))
                offset += nbytes
        return ranges

    def deserialize(
        self, data: bytes, schema: Schema, names: "Optional[Sequence[str]]" = None
    ) -> Dict[str, np.ndarray]:
        attrs = self._select(schema, names)
        n = self._num_records(len(data), attrs)
        out = {attr.name: np.empty(n, dtype=attr.np_dtype) for attr in attrs}
        offset = 0
        for start in range(0, n, self.block_records):
            count = min(self.block_records, n - start)
            for attr in attrs:
                out[attr.name][start : start + count] = np.frombuffer(
                    data, dtype=attr.np_dtype, count=count, offset=offset
                )
                offset += count * attr.itemsize
        return out


# ---------------------------------------------------------------------------
# Layout registry
# ---------------------------------------------------------------------------

_LAYOUTS: Dict[str, ChunkLayout] = {}


def register_layout(layout: ChunkLayout) -> ChunkLayout:
    """Register ``layout`` under its ``name`` (idempotent for equal names)."""
    if not layout.name:
        raise ValueError("layout has no name")
    _LAYOUTS[layout.name] = layout
    return layout


def layout_by_name(name: str) -> ChunkLayout:
    """Look up a layout; ``blocked(N)`` names are synthesised on demand."""
    if name in _LAYOUTS:
        return _LAYOUTS[name]
    if name.startswith("blocked(") and name.endswith(")"):
        inner = name[len("blocked(") : -1]
        try:
            block = int(inner)
        except ValueError:
            raise KeyError(f"bad blocked layout spec {name!r}") from None
        return register_layout(InterleavedBlockLayout(block))
    raise KeyError(f"unknown layout {name!r} (known: {sorted(_LAYOUTS)})")


register_layout(RowMajorLayout())
register_layout(ColumnMajorLayout())
