"""The literal hash join the kernel is tested against.

Build a dict on the left relation, probe it with the right — Section 5's
description rendered one record at a time.  It shares the kernel's
contract (value equality on keys: ``-0.0`` joins ``0.0``, a ``NaN`` key
joins nothing; right rows in order, left rows in insertion order within
a key) and nothing of its algorithm, so the two can be compared row for
row.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datamodel import SubTable, SubTableId
from repro.joins.hash_join import JoinKernelStats, _assemble, _check_join


def _keys(sub: SubTable, on: Sequence[str]) -> list:
    """One hashable key per record; ``None`` where a key column is NaN.

    Python floats hash and compare by value, so ``-0.0`` and ``0.0`` land
    in one dict slot.
    """
    rows = zip(*(sub.column(name).tolist() for name in on))
    return [None if any(v != v for v in key) else key for key in rows]


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

    table: dict[tuple, list[int]] = {}
    for i, key in enumerate(_keys(left, on)):
        stats.builds += 1
        if key is not None:
            table.setdefault(key, []).append(i)

    left_idx: list[int] = []
    right_idx: list[int] = []
    for j, key in enumerate(_keys(right, on)):
        stats.probes += 1
        hits = table.get(key) if key is not None else None
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
