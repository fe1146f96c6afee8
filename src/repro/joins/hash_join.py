"""In-memory hash join kernel.

Both QES algorithms bottom out here: "The in-memory hash join algorithm
requires a hash-table be built using the left (inner) relation with the
attribute of interest and that the resulting hash table be probed with the
records of the right (outer) relation" (Section 5).

One kernel, :func:`vectorized_hash_join`, serves both QES: the join keys of
both sides become one int64 id per record
(:func:`repro.datamodel.keys.key_ids`, which GROUP BY shares), the left
side is grouped by a stable sort of those ids, and probes become two
``searchsorted`` sweeps.  Pure NumPy on the hot path, per the HPC guides.
The literal dict-based hash join it is tested against lives with the tests
(``tests/joins/reference_kernel.py``).

Key equality is ``key_ids``' *value* equality: ``-0.0`` joins with ``0.0``
and a ``NaN`` key joins with nothing, itself included — what SQL's ``=``
and NumPy's ``==`` both say.  The reference kernel and this one return the
same rows in the same order under that contract.

The kernel reports :class:`JoinKernelStats` whose ``builds``/``probes``
counts are exactly what the cost models charge ``α_build``/``α_lookup``
for: one build per left record, one probe per right record (the paper's
join-selectivity-1 assumption makes one lookup per right record
sufficient; the kernel itself handles arbitrary multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.keys import key_ids
from repro.datamodel.subtable import SubTable, SubTableId

__all__ = ["JoinKernelStats", "vectorized_hash_join"]


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
    schema = left.schema.join(right.schema, on=on, suffix=suffix)
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


def vectorized_hash_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> Tuple[SubTable, JoinKernelStats]:
    """Vectorised equi-join with hash-join-equivalent output.

    Right rows are processed in order and, within one right row's key
    group, left rows keep their order — the row order of a literal hash
    join whose buckets keep insertion order, so the reference kernel in
    the test tree is a drop-in replacement, not merely multiset-equal.
    """
    _check_join(left, right, on)
    stats = JoinKernelStats(builds=left.num_records, probes=right.num_records)

    if left.num_records == 0 or right.num_records == 0:
        empty = np.empty(0, dtype=np.intp)
        return _assemble(left, right, on, empty, empty, result_id, suffix), stats
    # ids over both sides at once, so equal keys share an id across them
    ids = key_ids([np.concatenate([left.column(k), right.column(k)]) for k in on])
    lkeys, rkeys = ids[: left.num_records], ids[left.num_records :]

    # group left rows by key id with a stable sort
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
