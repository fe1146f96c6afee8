"""Chunk stores: the storage nodes' local disks, backed by real files.

A :class:`LocalChunkStore` owns a directory and appends chunks to one data
file per table, returning :class:`~repro.datamodel.chunk.ChunkRef` handles
(node, path, offset, size) — exactly the location metadata the MetaData
Service stores.  Reads are offset/size ranged reads, mirroring "the smallest
unit of retrieval from the file system" being the chunk.

The store is purely functional I/O; *timing* of these reads under the
simulated cluster's disk bandwidths is accounted separately by
:mod:`repro.cluster`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Tuple

from repro.datamodel.chunk import ChunkRef

__all__ = ["ChunkStore", "LocalChunkStore", "InMemoryChunkStore"]


class ChunkStore:
    """Abstract chunk container bound to one storage node id."""

    node_id: int

    def append(self, table_id: int, data: bytes) -> ChunkRef:
        """Append a chunk for ``table_id``; returns its location handle."""
        raise NotImplementedError

    def read(self, ref: ChunkRef) -> bytes:
        """Read the chunk bytes behind ``ref``."""
        raise NotImplementedError

    def read_ranges(self, ref: ChunkRef, ranges: "List[Tuple[int, int]]") -> bytes:
        """Read chunk-relative ``(offset, size)`` ranges, concatenated.

        This is the I/O half of the read path: only the byte ranges the
        chunk's layout reported are touched.  The base implementation
        validates the ranges and issues one seek+read per range — a single
        range is that read's bytes, uncopied; stores may override with
        smarter strategies.
        """
        parts = []
        for offset, size in ranges:
            if offset < 0 or size < 0 or offset + size > ref.size:
                raise ValueError(
                    f"range ({offset}, {size}) outside chunk of {ref.size} bytes"
                )
            sub = ChunkRef(
                storage_node=ref.storage_node,
                path=ref.path,
                offset=ref.offset + offset,
                size=size,
            )
            parts.append(self.read(sub))
        return parts[0] if len(parts) == 1 else b"".join(parts)


class LocalChunkStore(ChunkStore):
    """File-backed store: one append-only ``t<table>.dat`` file per table."""

    def __init__(self, root: str | os.PathLike, node_id: int):
        self.node_id = int(node_id)
        self.root = Path(root) / f"node{self.node_id:03d}"
        self.root.mkdir(parents=True, exist_ok=True)
        self._sizes: Dict[Path, int] = {}

    def _table_file(self, table_id: int) -> Path:
        return self.root / f"t{table_id}.dat"

    def append(self, table_id: int, data: bytes) -> ChunkRef:
        path = self._table_file(table_id)
        offset = self._sizes.get(path)
        if offset is None:
            offset = path.stat().st_size if path.exists() else 0
        with open(path, "ab") as f:
            f.write(data)
        self._sizes[path] = offset + len(data)
        return ChunkRef(
            storage_node=self.node_id,
            path=str(path),
            offset=offset,
            size=len(data),
        )

    def read(self, ref: ChunkRef) -> bytes:
        if ref.storage_node != self.node_id:
            raise ValueError(
                f"chunk lives on node {ref.storage_node}, this store is node {self.node_id}"
            )
        with open(ref.path, "rb") as f:
            f.seek(ref.offset)
            data = f.read(ref.size)
        if len(data) != ref.size:
            raise IOError(
                f"short read: wanted {ref.size} bytes at {ref.path}:{ref.offset}, "
                f"got {len(data)}"
            )
        return data


class InMemoryChunkStore(ChunkStore):
    """RAM-backed store for tests and model-only experiments.

    Behaves identically to :class:`LocalChunkStore` (same refs, same
    semantics) but keeps chunk bytes in a dict, so large test suites do not
    churn the filesystem.
    """

    def __init__(self, node_id: int):
        self.node_id = int(node_id)
        self._files: Dict[str, bytearray] = {}

    def append(self, table_id: int, data: bytes) -> ChunkRef:
        path = f"mem://node{self.node_id:03d}/t{table_id}.dat"
        buf = self._files.setdefault(path, bytearray())
        offset = len(buf)
        buf.extend(data)
        return ChunkRef(storage_node=self.node_id, path=path, offset=offset, size=len(data))

    def read(self, ref: ChunkRef) -> bytes:
        if ref.storage_node != self.node_id:
            raise ValueError(
                f"chunk lives on node {ref.storage_node}, this store is node {self.node_id}"
            )
        try:
            buf = self._files[ref.path]
        except KeyError:
            raise FileNotFoundError(ref.path) from None
        if ref.offset + ref.size > len(buf):
            raise IOError(f"short read at {ref.path}:{ref.offset}+{ref.size}")
        return bytes(buf[ref.offset : ref.offset + ref.size])
