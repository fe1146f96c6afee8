"""Single-node reference joins.

:func:`reference_join` is the correctness oracle the integration tests and
benchmarks compare every distributed execution against: it pulls *all*
chunks of both tables through the functional provider, concatenates them,
and joins with a **sort-merge** algorithm — deliberately a different
algorithm family from the hash-join kernels under test, so a shared bug
cannot hide.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.subtable import SubTable, SubTableId, concat_subtables
from repro.joins.hash_join import _assemble, _check_join
from repro.metadata.service import MetaDataService
from repro.services.bds import SubTableProvider

__all__ = ["reference_join", "sort_merge_join"]


def sort_merge_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> SubTable:
    """Classic sort-merge equi-join: one stable sort of both sides' keys,
    whose equal-key runs are found by comparing neighbours.

    Keys are equal by value, as in the hash kernels: ``-0.0 == 0.0``, and
    a NaN key equals nothing, so it joins nothing.  Rows come out run by
    run in key order, each right row of a run (in table order) with every
    left row of the run (in table order).  That differs from the hash
    kernels' order in general; compare with
    :meth:`SubTable.equals_unordered`.
    """
    _check_join(left, right, on)
    left_idx, right_idx = _merge(left, right, on)
    return _assemble(left, right, on, left_idx, right_idx, result_id, suffix)


def _merge(left: SubTable, right: SubTable, on: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The matching left and right rows, pair by pair in output order (its
    sort's temporaries are freed before the answer is assembled)."""
    n_left = left.num_records
    keys = [np.concatenate((left.column(name), right.column(name))) for name in on]
    order = np.lexsort(keys[::-1])  # stable: within a run, left rows come first
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in keys:
        ranked = column[order]
        starts[1:] |= ranked[1:] != ranked[:-1]  # NaN != NaN: a run of its own
    run = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    is_right = order >= n_left
    right_runs = run[is_right]
    counts = np.bincount(run[~is_right], minlength=len(first))[right_runs]
    right_idx = np.repeat(order[is_right] - n_left, counts)
    within = np.arange(len(right_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    return order[np.repeat(first[right_runs], counts) + within], right_idx


def reference_join(
    metadata: MetaDataService,
    provider: SubTableProvider,
    left: int | str,
    right: int | str,
    on: Sequence[str],
    suffix: str = "_r",
) -> SubTable:
    """Materialise both tables entirely and sort-merge join them."""
    if not provider.functional:
        raise ValueError("reference_join needs a functional provider")
    lcat = metadata.table(left)
    rcat = metadata.table(right)

    def whole(catalog) -> SubTable:
        subs = [provider.fetch(c) for c in catalog.all_chunks()]
        return concat_subtables(subs, id=SubTableId(catalog.table_id, -1))

    return sort_merge_join(whole(lcat), whole(rcat), on, result_id=SubTableId(-2, 0), suffix=suffix)
