"""Which records have equal keys — asked by the join kernel and by GROUP BY."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["id_order", "key_ids"]

_INT64_MAX = np.iinfo(np.int64).max
#: every whole number this large or smaller is exact in float64 (and so in
#: every float dtype that holds it), and in int64
_EXACT = 2**53
#: counting ranks sets one flag per value between a column's least and
#: greatest, so it ranks a column whose span is at most this many times its
#: length, however short (``benchmarks/key_crossover.py census``,
#: EXPERIMENTS.md)
_COUNTED_SPAN = 2


def key_ids(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 id per record of equally long key ``columns`` (at least one).

    * Ids are **equal exactly when the key tuples are equal by value**, as
      SQL's ``=`` and NumPy's ``==`` say: ``-0.0`` and ``0.0`` share an id,
      a key holding a ``NaN`` shares its id with no other record.
    * Ids **compare like the tuples, lexicographically**: first column most
      significant, ``NaN`` after every number and tied with every other ``NaN``,
      tied keys in record order — so a stable ``argsort`` of the ids is the
      stable lexicographic sort of the records.

    Each column is ranked on its own — its dense ranks, ``np.unique``'s
    inverse — and the ranks are packed mixed-radix: the first column's
    ranks are the ids, each later column is one more digit, packed in
    place.  A column of whole numbers over a small span (grid coordinates,
    tags) is ranked by counting the values it holds, every other column by
    ``np.unique``'s sort; both give the same ranks.  Should the radix
    product outgrow int64, the ids packed so far are re-ranked first
    (order-preserving) — they then number at most one per record, so the
    next digit always fits.
    """
    ids = None
    radix = 1
    has_nan = False  # or, once a column holds one, a mask of the keys that do
    for column in columns:
        counted = _counted_ranks(column)
        if counted is not None:
            ranks, base = counted
        else:
            values, ranks = np.unique(column, return_inverse=True)
            base = len(values)
            if base and values[-1] != values[-1]:  # NaNs share the last rank
                has_nan = has_nan | (ranks == base - 1)
        if ids is None:  # ranks are a fresh array: the ids grow in it
            ids, radix = ranks.astype(np.int64, copy=False), base
        else:
            ids, radix = _pack(ids, radix, ranks, base)
    if has_nan is not False:  # a last digit numbers the NaN keys in record order
        count = np.cumsum(has_nan)
        ids, _ = _pack(ids, radix, np.where(has_nan, count, 0), int(count[-1]) + 1)
    return ids


def _counted_ranks(column: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """``column``'s dense ranks and how many distinct values it holds, by
    counting: one flag per value of its span, a running count of the flags
    set — or, when every value of the span is held, the offsets from the
    least value themselves.  ``None`` for an empty column, and unless every
    value is a whole number within ``±2**53`` (so no ``NaN`` or ``±inf``)
    and the span is at most ``_COUNTED_SPAN`` times the length."""
    if not len(column) or column.dtype.kind not in "fiu":
        return None
    lo, hi = column.min().item(), column.max().item()
    # NaN, an infinity and a wide span all fail the first test
    if not hi - lo <= _COUNTED_SPAN * len(column) or not -_EXACT <= lo <= hi <= _EXACT:
        return None
    offsets = column.astype(np.int64)
    if column.dtype.kind == "f" and not (offsets == column).all():
        return None  # a fraction (-0.0 is whole: it equals its int, 0)
    offsets -= int(lo)
    seen = np.zeros(int(hi - lo) + 1, dtype=bool)
    seen[offsets] = True
    if seen.all():  # a grid's coordinates: rank and offset are one
        return offsets, len(seen)
    rank_of = np.cumsum(seen, dtype=np.intp) - 1
    return rank_of[offsets], int(rank_of[-1]) + 1


def _pack(ids: np.ndarray, radix: int, digit: np.ndarray, base: int) -> Tuple[np.ndarray, int]:
    """Append one mixed-radix ``digit`` (values below ``base``) to ``ids``,
    in place unless the prefix is re-ranked first."""
    if radix * base > _INT64_MAX:
        packed, ids = np.unique(ids, return_inverse=True)
        radix = len(packed)
    ids *= base
    ids += digit
    return ids, radix * base


def id_order(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for non-negative int64 ``ids``,
    such as :func:`key_ids` returns.

    NumPy sorts 16-bit integers by radix, in linear time, and wider ones by
    comparison.  So ids below ``2**16`` are sorted as uint16 in one radix
    pass, ids below ``2**32`` in two — by the low 16 bits, then stably by
    the high 16 (least significant digit first) — and only wider ids are
    compared.
    """
    top = int(ids.max()) if len(ids) else 0
    if top < 1 << 16:
        return np.argsort(ids.astype(np.uint16), kind="stable")
    if top < 1 << 32:
        order = np.argsort((ids & 0xFFFF).astype(np.uint16), kind="stable")
        return order[np.argsort((ids[order] >> 16).astype(np.uint16), kind="stable")]
    return np.argsort(ids, kind="stable")
