"""Compressed chunk layout: delta-RLE coding for grid-structured columns.

Simulation outputs over regular grids are extremely compressible: the
coordinate columns of a row-major tile are staircase sequences whose
*delta* streams consist of a handful of run-length-encodable values.
:class:`CompressedColumnLayout` encodes each column independently as
whichever is smaller of

* ``raw`` — the bytes as-is, or
* ``delta-rle`` — first value + run-length-encoded delta stream,

and *verifies bit-exact round-trip at encode time*, falling back to raw on
any mismatch (floating-point delta reconstruction is exact for the integer-
valued grids used here, but the format never trusts that).  Chunks carry a
small self-describing header (record count + per-column codec tags), so
this is the one layout whose chunk size is data-dependent — which is the
point: smaller chunks mean proportionally less disk and network time in
both QES algorithms.

A read cannot skip bytes (columns have variable encoded sizes; a future
format revision could add a range directory), so ``column_ranges`` is the
base class's whole chunk.  A projected ``deserialize`` still walks and
length-checks every column header, and decodes only the named payloads.
"""

from __future__ import annotations

import struct
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.datamodel.schema import Schema
from repro.storage.layout import ChunkLayout, register_layout

__all__ = ["CompressedColumnLayout"]

_HEADER = struct.Struct("<Q")       # record count
_COLHDR = struct.Struct("<BI")      # codec tag, payload byte length
_RUN = struct.Struct("<I")          # run length

_RAW = 0
_DELTA_RLE = 1


def _rle_encode(values: np.ndarray) -> bytes:
    """Run-length encode a 1-D array: [(value, count)...] with uint32 counts."""
    if len(values) == 0:
        return b""
    boundaries = np.flatnonzero(values[1:] != values[:-1])
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [len(values)]))
    out = bytearray()
    for s, e in zip(starts, ends):
        out.extend(values[s : s + 1].tobytes())
        out.extend(_RUN.pack(int(e - s)))
    return bytes(out)


def _rle_decode(data: bytes, dtype: np.dtype, total: int) -> np.ndarray:
    itemsize = dtype.itemsize
    step = itemsize + _RUN.size
    out = np.empty(total, dtype=dtype)
    pos = 0
    offset = 0
    while offset < len(data):
        value = np.frombuffer(data, dtype=dtype, count=1, offset=offset)[0]
        (count,) = _RUN.unpack_from(data, offset + itemsize)
        out[pos : pos + count] = value
        pos += count
        offset += step
    if pos != total:
        raise ValueError(f"RLE stream decoded {pos} values, expected {total}")
    return out


def _encode_column(col: np.ndarray) -> tuple[int, bytes]:
    raw = col.tobytes()
    n = len(col)
    if n >= 2:
        deltas = col[1:] - col[:-1]
        payload = col[:1].tobytes() + _rle_encode(deltas)
        if len(payload) < len(raw):
            # verify bit-exact reconstruction before committing
            candidate = _decode_column(_DELTA_RLE, payload, col.dtype, n)
            if candidate.tobytes() == raw:
                return _DELTA_RLE, payload
    return _RAW, raw


def _decode_column(tag: int, payload: bytes, dtype: np.dtype, n: int) -> np.ndarray:
    if tag == _RAW:
        out = np.frombuffer(payload, dtype=dtype, count=n).copy()
        return out
    if tag == _DELTA_RLE:
        if n == 0:
            return np.empty(0, dtype=dtype)
        first = np.frombuffer(payload, dtype=dtype, count=1).copy()
        deltas = _rle_decode(payload[dtype.itemsize:], dtype, n - 1)
        out = np.empty(n, dtype=dtype)
        out[0] = first[0]
        # sequential reconstruction in the column dtype: the encoder
        # verified this exact computation reproduces the original bytes
        np.cumsum(deltas, out=out[1:], dtype=dtype)
        out[1:] += first[0]
        return out
    raise ValueError(f"unknown codec tag {tag}")


class CompressedColumnLayout(ChunkLayout):
    """Self-describing per-column compressed layout."""

    name = "compressed_column"

    def serialize(self, columns: Mapping[str, np.ndarray], schema: Schema) -> bytes:
        n = self._check_columns(columns, schema)
        out = bytearray(_HEADER.pack(n))
        for attr in schema:
            col = np.ascontiguousarray(columns[attr.name], dtype=attr.np_dtype)
            tag, payload = _encode_column(col)
            out.extend(_COLHDR.pack(tag, len(payload)))
            out.extend(payload)
        return bytes(out)

    def deserialize(
        self, data: bytes, schema: Schema, names: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        wanted = {a.name for a in self._select(schema, names)}
        if len(data) < _HEADER.size:
            raise ValueError("truncated compressed chunk (no header)")
        (n,) = _HEADER.unpack_from(data, 0)
        offset = _HEADER.size
        out: Dict[str, np.ndarray] = {}
        for attr in schema:
            if offset + _COLHDR.size > len(data):
                raise ValueError(f"truncated compressed chunk at column {attr.name!r}")
            tag, length = _COLHDR.unpack_from(data, offset)
            offset += _COLHDR.size
            payload = data[offset : offset + length]
            if len(payload) != length:
                raise ValueError(f"truncated payload for column {attr.name!r}")
            if attr.name in wanted:
                out[attr.name] = _decode_column(tag, payload, attr.np_dtype, n)
            offset += length
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes in compressed chunk")
        return out


register_layout(CompressedColumnLayout())
