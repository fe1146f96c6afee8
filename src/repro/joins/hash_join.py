"""In-memory hash join kernel.

Both QES algorithms bottom out here: "The in-memory hash join algorithm
requires a hash-table be built using the left (inner) relation with the
attribute of interest and that the resulting hash table be probed with the
records of the right (outer) relation" (Section 5).

Two kernels produce byte-identical results:

* :func:`dict_hash_join` — a literal hash join over a Python dict, the
  faithful algorithmic rendering, kept as the reference the kernel tests
  compare against.
* :func:`vectorized_hash_join` — the kernel both QES call: join keys are
  densified with ``np.unique`` (equality-preserving integer ids), the left
  side is grouped by a counting sort, and probes become two
  ``searchsorted`` sweeps.  Pure NumPy on the hot path, per the HPC
  guides.

Both report :class:`JoinKernelStats` whose ``builds``/``probes`` counts are
exactly what the cost models charge ``α_build``/``α_lookup`` for: one build
per left record, one probe per right record (the paper's join-selectivity-1
assumption makes one lookup per right record sufficient; the kernel itself
handles arbitrary multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.schema import Schema
from repro.datamodel.subtable import SubTable, SubTableId

__all__ = ["JoinKernelStats", "dict_hash_join", "vectorized_hash_join"]


@dataclass
class JoinKernelStats:
    """Operation counts from one kernel invocation."""

    builds: int = 0
    probes: int = 0
    matches: int = 0

    def __iadd__(self, other: "JoinKernelStats") -> "JoinKernelStats":
        self.builds += other.builds
        self.probes += other.probes
        self.matches += other.matches
        return self


def _key_struct(sub: SubTable, on: Sequence[str]) -> np.ndarray:
    """The join-key columns as one structured array (zero-copy per column)."""
    dtype = np.dtype([(name, sub.schema[name].np_dtype) for name in on])
    out = np.empty(sub.num_records, dtype=dtype)
    for name in on:
        out[name] = sub.column(name)
    return out


def _result_schema(left: SubTable, right: SubTable, on: Sequence[str], suffix: str) -> Schema:
    return left.schema.join(right.schema, on=on, suffix=suffix)


def _assemble(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    result_id: Optional[SubTableId],
    suffix: str,
) -> SubTable:
    """Materialise the join result from matched row-index pairs."""
    schema = _result_schema(left, right, on, suffix)
    columns = {}
    names_iter = iter(schema.names)
    for attr in left.schema:
        columns[next(names_iter)] = left.column(attr.name)[left_idx]
    on_set = set(on)
    for attr in right.schema:
        if attr.name in on_set:
            continue
        columns[next(names_iter)] = right.column(attr.name)[right_idx]
    rid = result_id if result_id is not None else SubTableId(-1, 0)
    return SubTable(rid, schema, columns)


def _check_join(left: SubTable, right: SubTable, on: Sequence[str]) -> None:
    if not on:
        raise ValueError("join needs at least one attribute")
    for name in on:
        if name not in left.schema or name not in right.schema:
            raise ValueError(f"join attribute {name!r} missing from one side")
        if left.schema[name].np_dtype != right.schema[name].np_dtype:
            raise ValueError(
                f"join attribute {name!r} has mismatched dtypes: "
                f"{left.schema[name].dtype} vs {right.schema[name].dtype}"
            )


def dict_hash_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> Tuple[SubTable, JoinKernelStats]:
    """Literal hash join: build a dict on the left, probe with the right."""
    _check_join(left, right, on)
    stats = JoinKernelStats()

    table: dict[bytes, list[int]] = {}
    left_keys = _key_struct(left, on)
    for i in range(left.num_records):
        table.setdefault(left_keys[i].tobytes(), []).append(i)
        stats.builds += 1

    right_keys = _key_struct(right, on)
    left_idx: list[int] = []
    right_idx: list[int] = []
    for j in range(right.num_records):
        stats.probes += 1
        hits = table.get(right_keys[j].tobytes())
        if hits:
            left_idx.extend(hits)
            right_idx.extend([j] * len(hits))
    stats.matches = len(left_idx)
    result = _assemble(
        left,
        right,
        on,
        np.asarray(left_idx, dtype=np.intp),
        np.asarray(right_idx, dtype=np.intp),
        result_id,
        suffix,
    )
    return result, stats


def vectorized_hash_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> Tuple[SubTable, JoinKernelStats]:
    """Vectorised equi-join with hash-join-equivalent output.

    Left row order within a key group is preserved (matching the dict
    kernel's insertion order) and right rows are processed in order, so the
    two kernels return results in the identical row order — they are
    drop-in replacements, not merely multiset-equal.
    """
    _check_join(left, right, on)
    stats = JoinKernelStats(builds=left.num_records, probes=right.num_records)

    nl = left.num_records
    both = np.concatenate([_key_struct(left, on), _key_struct(right, on)])
    _, inverse = np.unique(both, return_inverse=True)
    lkeys = inverse[:nl]
    rkeys = inverse[nl:]

    if nl == 0 or right.num_records == 0:
        empty = np.empty(0, dtype=np.intp)
        return _assemble(left, right, on, empty, empty, result_id, suffix), stats

    # group left rows by key id with a stable counting sort
    order = np.argsort(lkeys, kind="stable")
    sorted_keys = lkeys[order]
    # for each right key: the [start, stop) slice of matching left rows
    starts = np.searchsorted(sorted_keys, rkeys, side="left")
    stops = np.searchsorted(sorted_keys, rkeys, side="right")
    counts = stops - starts

    total = int(counts.sum())
    stats.matches = total
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return _assemble(left, right, on, empty, empty, result_id, suffix), stats

    # expand: for right row j with counts[j] matches, take left rows
    # order[starts[j] .. stops[j])
    right_idx = np.repeat(np.arange(right.num_records, dtype=np.intp), counts)
    # offsets within each right row's match range
    cum = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(total, dtype=np.intp) - np.repeat(cum[:-1], counts)
    left_idx = order[np.repeat(starts, counts) + within]

    return _assemble(left, right, on, left_idx, right_idx, result_id, suffix), stats
