"""The ``key_ids`` that ``repro.datamodel.keys`` is tested against.

A frozen copy of that function from before it counted the ranks of
small-span whole-number columns: every column ranked by ``np.unique``'s
sort, the ranks packed mixed-radix, the packed prefix re-ranked before it
could outgrow int64.  Kept because it is the byte-level oracle for the
ids — the counted ranks must be the very ranks ``np.unique`` gives.  Not
to be tidied.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["reference_key_ids"]

_INT64_MAX = np.iinfo(np.int64).max


def reference_key_ids(columns: Sequence[np.ndarray]) -> np.ndarray:
    ids = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    has_nan = False
    for column in columns:
        values, ranks = np.unique(column, return_inverse=True)
        if len(values) and values[-1] != values[-1]:
            has_nan = has_nan | (ranks == len(values) - 1)
        ids, radix = _pack(ids, radix, ranks, len(values))
    if has_nan is not False:
        count = np.cumsum(has_nan)
        ids, _ = _pack(ids, radix, np.where(has_nan, count, 0), int(count[-1]) + 1)
    return ids


def _pack(ids: np.ndarray, radix: int, digit: np.ndarray, base: int) -> Tuple[np.ndarray, int]:
    if radix * base > _INT64_MAX:
        packed, ids = np.unique(ids, return_inverse=True)
        radix = len(packed)
    return ids * base + digit, radix * base
