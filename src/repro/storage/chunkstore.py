"""Chunk stores: the storage nodes' local disks, backed by real files.

A :class:`LocalChunkStore` owns a directory and appends chunks to one data
file per table, returning :class:`~repro.datamodel.chunk.ChunkRef` handles
(node, path, offset, size) — exactly the location metadata the MetaData
Service stores.  Reads are offset/size ranged reads, mirroring "the smallest
unit of retrieval from the file system" being the chunk.

It reads with ``os.pread`` on one read-only descriptor per table file,
opened on the file's first read and closed when the store is collected.

The store is purely functional I/O; *timing* of these reads under the
simulated cluster's disk bandwidths is accounted separately by
:mod:`repro.cluster`.
"""

from __future__ import annotations

import os
import weakref
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

    def read_ranges(self, ref: ChunkRef, ranges: "List[Tuple[int, int]]") -> bytes:
        """Read chunk-relative ``(offset, size)`` ranges, concatenated.

        This is the I/O half of the read path: only the byte ranges the
        chunk's layout reported are touched.  Only chunks on this store's
        node are read; the ranges are validated and each is one
        :meth:`_read_at` — a single range is that read's bytes, uncopied.
        """
        if ref.storage_node != self.node_id:
            raise ValueError(
                f"chunk lives on node {ref.storage_node}, this store is node {self.node_id}"
            )
        parts = []
        for offset, size in ranges:
            if offset < 0 or size < 0 or offset + size > ref.size:
                raise ValueError(
                    f"range ({offset}, {size}) outside chunk of {ref.size} bytes"
                )
            parts.append(self._read_at(ref.path, ref.offset + offset, size))
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _read_at(self, path: str, offset: int, size: int) -> bytes:
        """Exactly ``size`` bytes of the file ``path`` from ``offset``."""
        raise NotImplementedError


def _close_all(fds: Dict[str, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()


class LocalChunkStore(ChunkStore):
    """File-backed store: one append-only ``t<table>.dat`` file per table,
    read through one read-only descriptor per file (``os.pread``: no
    seek, no ``open`` per chunk).  The descriptors close when the store
    is collected; ``pread`` sees what was appended after a file's first
    read."""

    def __init__(self, root: str | os.PathLike, node_id: int):
        self.node_id = int(node_id)
        self.root = Path(root) / f"node{self.node_id:03d}"
        self.root.mkdir(parents=True, exist_ok=True)
        self._sizes: Dict[Path, int] = {}
        self._fds: Dict[str, int] = {}
        weakref.finalize(self, _close_all, self._fds)

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

    def _read_at(self, path: str, offset: int, size: int) -> bytes:
        fd = self._fds.get(path)
        if fd is None:
            fd = self._fds[path] = os.open(path, os.O_RDONLY)
        data = os.pread(fd, size, offset)
        if len(data) != size:
            raise IOError(
                f"short read: wanted {size} bytes at {path}:{offset}, got {len(data)}"
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

    def _read_at(self, path: str, offset: int, size: int) -> bytes:
        try:
            buf = self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None
        if offset + size > len(buf):
            raise IOError(f"short read at {path}:{offset}+{size}")
        return bytes(buf[offset : offset + size])
