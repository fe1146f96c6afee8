"""Single-node reference joins.

:func:`reference_join` is the correctness oracle the integration tests and
benchmarks compare every distributed execution against: it pulls *all*
chunks of both tables through the functional provider, concatenates them,
and joins with a **sort-merge** algorithm — deliberately a different
algorithm family from the hash-join kernels under test, so a shared bug
cannot hide.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datamodel.subtable import SubTable, SubTableId, concat_subtables
from repro.joins.hash_join import _assemble, _check_join
from repro.metadata.service import MetaDataService
from repro.services.bds import SubTableProvider

__all__ = ["reference_join", "sort_merge_join"]


def _key_struct(sub: SubTable, on: Sequence[str]) -> np.ndarray:
    """The join-key columns as one structured array, which NumPy sorts
    and searches lexicographically."""
    dtype = np.dtype([(name, sub.schema[name].np_dtype) for name in on])
    out = np.empty(sub.num_records, dtype=dtype)
    for name in on:
        out[name] = sub.column(name)
    return out


def sort_merge_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> SubTable:
    """Classic sort-merge equi-join (vectorised merge via searchsorted).

    Output row order differs from the hash kernels in general; compare with
    :meth:`SubTable.equals_unordered`.
    """
    _check_join(left, right, on)
    lkeys = _key_struct(left, on)
    rkeys = _key_struct(right, on)
    lorder = np.argsort(lkeys, order=list(on), kind="stable")
    rorder = np.argsort(rkeys, order=list(on), kind="stable")
    lsorted = lkeys[lorder]
    rsorted = rkeys[rorder]

    # for each right row (sorted), the run of equal left rows
    starts = np.searchsorted(lsorted, rsorted, side="left")
    stops = np.searchsorted(lsorted, rsorted, side="right")
    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return _assemble(left, right, on, empty, empty, result_id, suffix)
    right_idx = rorder[np.repeat(np.arange(len(rsorted), dtype=np.intp), counts)]
    cum = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(total, dtype=np.intp) - np.repeat(cum[:-1], counts)
    left_idx = lorder[np.repeat(starts, counts) + within]
    return _assemble(left, right, on, left_idx, right_idx, result_id, suffix)


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
