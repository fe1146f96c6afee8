"""Sub-tables: the unit of data exchanged between framework services.

A *basic sub-table* is what a Basic Data Source produces from one chunk: "a
partition of the table structure that comprises the entire dataset.  It
contains a subset of records and attributes of the dataset table, and methods
to iterate through records and attributes in a record" (Section 2).

:class:`SubTable` stores records column-oriented as NumPy arrays — the idiom
the HPC guides prescribe: all per-record operations (selection, bound
computation, hashing for joins) are vectorised and never loop over records in
Python.  Row iteration is provided for client convenience only.

:class:`SubTableStub` is the *model-only* twin used by the cluster simulator
when an experiment is too large to materialise (e.g. the paper's
2-billion-tuple runs in Figure 6): it carries the record count and byte size
that drive resource accounting, but no data.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.schema import Schema

__all__ = ["SubTableId", "SubTable", "SubTableStub", "bbox_mask", "concat_subtables"]


class SubTableId(tuple):
    """Identifier ``(i, j)``: table id *i*, chunk id *j* (Section 4).

    The ordering is lexicographic, which is exactly the order the paper's
    two-stage IJ scheduler sorts pair lists by.  An id is a ``(table_id,
    chunk_id)`` tuple, so every cache, pin set and catalog lookup hashes
    and compares it in C, to ``hash((table_id, chunk_id))``.
    """

    __slots__ = ()

    def __new__(cls, table_id: int, chunk_id: int) -> "SubTableId":
        return tuple.__new__(cls, (table_id, chunk_id))

    table_id = property(itemgetter(0), doc="Table id *i*.")
    chunk_id = property(itemgetter(1), doc="Chunk id *j* within the table.")

    def __getnewargs__(self) -> Tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:  # compact: shows up a lot in logs/tests
        return f"({self[0]},{self[1]})"


class SubTable:
    """A column-oriented set of records with an id, schema and bounds."""

    __slots__ = ("id", "schema", "num_records", "_columns", "_bbox")

    def __init__(
        self,
        id: SubTableId,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        bbox: Optional[BoundingBox] = None,
    ):
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema {sorted(schema.names)}"
            )
        # Normalise dtypes up front so downstream join kernels can rely on them.
        normalised: Dict[str, np.ndarray] = {}
        for a in schema:
            col = np.array(columns[a.name], dtype=a.np_dtype, copy=None, order="C")
            if col.ndim != 1:
                raise ValueError(
                    f"column {a.name!r} has shape {col.shape}; a column is one-dimensional"
                )
            normalised[a.name] = col
        num_records = len(col)
        if any(len(c) != num_records for c in normalised.values()):
            lengths = {name: len(c) for name, c in normalised.items()}
            raise ValueError(f"ragged columns: {lengths}")
        self.id = id
        self.schema = schema
        self._columns = normalised
        #: the record count, fixed at construction (every column has it)
        self.num_records: int = num_records
        self._bbox = bbox

    @classmethod
    def _unchecked(
        cls, id: SubTableId, schema: Schema, columns: Dict[str, np.ndarray]
    ) -> "SubTable":
        """A sub-table over ``columns`` as they are, without the
        constructor's normalisation: for the join path's own tables, whose
        columns are gathers, slices, repeats and concatenations of
        sub-tables' columns — one-dimensional, C-contiguous, of the
        schema's dtypes, equally long and keyed in schema order, which
        is all the constructor would make sure of."""
        table = cls.__new__(cls)
        table.id, table.schema, table._columns, table._bbox = id, schema, columns, None
        table.num_records = len(next(iter(columns.values())))
        return table

    @classmethod
    def empty(cls, id: SubTableId, schema: Schema) -> "SubTable":
        """No records: every column of ``schema``, empty, in its dtype."""
        return cls(id, schema, {a.name: np.empty(0, dtype=a.np_dtype) for a in schema})

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return self.num_records

    def column(self, name: str) -> np.ndarray:
        """The column array for ``name`` (a view — do not mutate)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column {name!r} in sub-table {self.id}") from None

    def columns(self, names: Optional[Sequence[str]] = None) -> Tuple[np.ndarray, ...]:
        """The arrays of ``names``, or of every column in schema order."""
        if names is None:
            return tuple(self._columns.values())  # built in schema order
        return tuple(self.column(n) for n in names)

    @property
    def bbox(self) -> BoundingBox:
        """Bounds over all attributes; computed from the data on first use
        when not supplied at construction."""
        if self._bbox is None:
            self._bbox = self.compute_bbox()
        return self._bbox

    def compute_bbox(self) -> BoundingBox:
        """Exact per-attribute bounds of the stored records."""
        if self.num_records == 0:
            return BoundingBox.empty()
        return BoundingBox(
            {name: (float(col.min()), float(col.max())) for name, col in self._columns.items()}
        )

    # -- record-level views ----------------------------------------------------

    def iter_records(self) -> Iterator[Tuple]:
        """Iterate records as tuples in schema order (convenience only —
        hot paths must use the column arrays)."""
        cols = self.columns()
        for i in range(self.num_records):
            yield tuple(col[i] for col in cols)

    def to_structured_array(self) -> np.ndarray:
        """Copy into a NumPy structured array (one field per attribute)."""
        out = np.empty(self.num_records, dtype=self.schema.to_numpy_dtype())
        for name in self.schema.names:
            out[name] = self._columns[name]
        return out

    # -- relational operators ---------------------------------------------------

    def select(self, mask: np.ndarray) -> "SubTable":
        """Records where ``mask`` is true (vectorised row selection)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_records,):
            raise ValueError(f"mask shape {mask.shape} != ({self.num_records},)")
        return SubTable(
            self.id, self.schema, {n: c[mask] for n, c in self._columns.items()}
        )

    def take(self, indices: np.ndarray) -> "SubTable":
        """Records at ``indices`` (may repeat / reorder); a ``slice``
        gives views of the columns, not copies."""
        return SubTable(
            self.id, self.schema, {n: c[indices] for n, c in self._columns.items()}
        )

    def project(self, names: Sequence[str]) -> "SubTable":
        """Projection onto ``names`` (keeps id; narrows schema)."""
        schema = self.schema.project(names)
        return SubTable(self.id, schema, {n: self._columns[n] for n in names})

    # -- equality (tests & oracles) ----------------------------------------------

    def sort_by(self, names: Sequence[str]) -> "SubTable":
        """Records sorted lexicographically by ``names`` (stable)."""
        order = np.lexsort(tuple(self.column(n) for n in reversed(list(names))))
        return self.take(order)

    def equals_unordered(self, other: "SubTable") -> bool:
        """True when both sub-tables hold the same multiset of records
        (schema-order-sensitive, row-order-insensitive)."""
        if self.schema != other.schema or self.num_records != other.num_records:
            return False
        a = np.sort(self.to_structured_array(), order=list(self.schema.names))
        b = np.sort(other.to_structured_array(), order=list(other.schema.names))
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:
        return (
            f"SubTable(id={self.id}, records={self.num_records}, "
            f"attrs={list(self.schema.names)})"
        )


@dataclass(frozen=True)
class SubTableStub:
    """Sizes-only stand-in for a :class:`SubTable` in model-only simulation.

    Carries everything the cluster simulator's resource accounting needs —
    record count, byte size, bounding box — without materialising data.
    """

    id: SubTableId
    num_records: int
    record_size: int
    bbox: BoundingBox

    def __len__(self) -> int:
        return self.num_records


def bbox_mask(sub: SubTable, box: BoundingBox) -> np.ndarray:
    """Record-level mask for a bounding-box constraint (attributes absent
    from the sub-table are unconstrained)."""
    mask = np.ones(sub.num_records, dtype=bool)
    for name in box:
        if name in sub.schema:
            iv = box.interval(name)
            col = sub.column(name)
            mask &= (col >= iv.lo) & (col <= iv.hi)
    return mask


def concat_subtables(
    parts: Sequence[SubTable], id: Optional[SubTableId] = None
) -> SubTable:
    """Concatenate same-schema sub-tables into one (used to assemble query
    results and Grace Hash buckets)."""
    if not parts:
        raise ValueError("cannot concatenate zero sub-tables")
    schema = parts[0].schema
    for p in parts[1:]:
        if p.schema != schema:
            raise ValueError(f"schema mismatch: {p.schema} != {schema}")
    out_id = id if id is not None else parts[0].id
    columns = {
        name: np.concatenate([p.column(name) for p in parts]) for name in schema.names
    }
    return SubTable(out_id, schema, columns)
