"""Which records have equal keys — asked by the join kernel and by GROUP BY."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["key_ids"]

_INT64_MAX = np.iinfo(np.int64).max


def key_ids(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 id per record of equally long key ``columns`` (at least one).

    * Ids are **equal exactly when the key tuples are equal by value**, as
      SQL's ``=`` and NumPy's ``==`` say: ``-0.0`` and ``0.0`` share an id,
      a key holding a ``NaN`` shares its id with no other record.
    * Ids **compare like the tuples, lexicographically**: first column most
      significant, ``NaN`` after every number and tied with every other ``NaN``,
      tied keys in record order — so a stable ``argsort`` of the ids is the
      stable lexicographic sort of the records.

    Each column is ranked on its own with ``np.unique`` and the ranks are
    packed mixed-radix.  Should the radix product outgrow int64, the ids
    packed so far are re-ranked first (order-preserving) — they then number
    at most one per record, so the next digit always fits.
    """
    ids = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    has_nan = False  # or, once a column holds one, a mask of the keys that do
    for column in columns:
        values, ranks = np.unique(column, return_inverse=True)
        if len(values) and values[-1] != values[-1]:  # NaNs share the last rank
            has_nan = has_nan | (ranks == len(values) - 1)
        ids, radix = _pack(ids, radix, ranks, len(values))
    if has_nan is not False:  # a last digit numbers the NaN keys in record order
        count = np.cumsum(has_nan)
        ids, _ = _pack(ids, radix, np.where(has_nan, count, 0), int(count[-1]) + 1)
    return ids


def _pack(ids: np.ndarray, radix: int, digit: np.ndarray, base: int) -> Tuple[np.ndarray, int]:
    """Append one mixed-radix ``digit`` (values below ``base``) to ``ids``."""
    if radix * base > _INT64_MAX:
        packed, ids = np.unique(ids, return_inverse=True)
        radix = len(packed)
    return ids * base + digit, radix * base
