"""In-memory hash join kernel.

Both QES algorithms bottom out here: "The in-memory hash join algorithm
requires a hash-table be built using the left (inner) relation with the
attribute of interest and that the resulting hash table be probed with the
records of the right (outer) relation" (Section 5).

One kernel, :func:`vectorized_hash_join`, serves both QES: the join keys of
both sides become one int64 id per record
(:func:`repro.datamodel.keys.key_ids`, which GROUP BY shares).  When no
two left records share an id and the id space is small, the ids are the
hash table's addresses: the build writes each left row into its id's
slot, and a probe reads one slot (the paper's selectivity-1 case, and
every call ``view_query`` makes).  Otherwise the left side is grouped by
a stable sort of its ids, and probes become two ``searchsorted`` sweeps.
Pure NumPy on the hot path, per the HPC guides.
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

from repro.datamodel.keys import id_order, key_ids
from repro.datamodel.subtable import SubTable, SubTableId

__all__ = ["JoinKernelStats", "vectorized_hash_join"]

#: unique left ids are addressed directly while the id space is at most this
#: many times the ids: on ``view_query``'s calls the table wins every cell
#: through 128x, and from 256x it is a toss-up between runs
#: (``benchmarks/key_crossover.py build``).  Past it, and for repeated left
#: ids, the left ids are sorted and searched
_DIRECT_SPACE = 128


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
    return SubTable._unchecked(rid, schema, columns)


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
    matched = _direct_probe(lkeys, rkeys, int(ids.max()) + 1)
    left_idx, right_idx = matched if matched is not None else _sorted_probe(lkeys, rkeys)
    stats.matches = len(left_idx)
    return _assemble(left, right, on, left_idx, right_idx, result_id, suffix), stats


def _direct_probe(
    lkeys: np.ndarray, rkeys: np.ndarray, space: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The matching ``(left_idx, right_idx)`` rows by direct addressing, or
    ``None`` when a left id repeats or the id ``space`` (the largest id, plus
    one) is too wide.

    Each left row is written into its id's slot of a table over the id
    space; reading the slots back finds every left row still there exactly
    when no two left rows share an id.  Each right row then reads its
    id's slot: at most one match, so right order is the output order.
    """
    if space > _DIRECT_SPACE * (len(lkeys) + len(rkeys)):
        return None
    rows = np.arange(len(lkeys), dtype=np.int32)
    slot = np.full(space, -1, dtype=np.int32)
    slot[lkeys] = rows
    if not np.array_equal(slot[lkeys], rows):
        return None
    hit = slot[rkeys]
    right_idx = np.flatnonzero(hit >= 0)
    return hit[right_idx].astype(np.intp), right_idx


def _sorted_probe(lkeys: np.ndarray, rkeys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The matching ``(left_idx, right_idx)`` rows through a stable sort of
    the left ids: each right id's run of equal left ids is found by two
    binary searches, and expanded in left order."""
    order = id_order(lkeys)
    sorted_keys = lkeys[order]
    starts = np.searchsorted(sorted_keys, rkeys, side="left")
    counts = np.searchsorted(sorted_keys, rkeys, side="right") - starts
    total = int(counts.sum())
    # expand: for right row j with counts[j] matches, take left rows
    # order[starts[j] .. starts[j] + counts[j])
    right_idx = np.repeat(np.arange(len(rkeys), dtype=np.intp), counts)
    # offsets within each right row's match range
    cum = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(total, dtype=np.intp) - np.repeat(cum[:-1], counts)
    return order[np.repeat(starts, counts) + within], right_idx
