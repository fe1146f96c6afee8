"""Vectorised grouped aggregation.

Implements the Section 2 requirement that view definitions "may involve
aggregation operations such [as] AVG or SUM".  Groups are the ids of
:func:`repro.datamodel.keys.key_ids` over the group-key columns — the ids
the join kernel matches on, so GROUP BY and ``=`` agree on which keys are
equal.  Over a small id space COUNT, SUM and AVG are counted per id
(``bincount``); everything else is reduced over the records sorted by id
with sorted-segment arithmetic.  No per-group Python loops over records.

Both ways give the same bytes.  A sorted segment's sum is ``np.add``'s
pairwise summation, a counted one adds in record order, so a value column
is counted only when every partial sum of it is exact in float64 — then
any order of addition gives the one exact sum.  An exact sum is ``-0.0``
only when every value added was ``-0.0``, which a count that starts from
``0.0`` has to be told.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.core.view import Aggregate
from repro.datamodel.keys import id_order, key_ids
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.subtable import SubTable, SubTableId

__all__ = ["aggregate"]

#: GROUP BY counts its groups while the largest group id is below this many
#: times the records: counting wins below it, ties at it and loses at twice
#: it (``benchmarks/key_crossover.py groupby``)
_COUNTED_SPACE = 1


def _exact_sums(column: np.ndarray) -> bool:
    """Whether every partial sum of ``column``, as float64, is exact.

    They are when every value is a whole multiple of one power of two
    ``unit`` and the record count times the largest magnitude stays
    within ``2**52`` units — when the largest power of two dividing every
    value is at least the least ``unit`` that bound allows, that is, when
    every value is a multiple of that least one.  A ``NaN``, an infinity
    or a bound past float64's range fails.
    """
    values = column if column.dtype.kind == "f" else column.astype(np.float64)
    magnitude = np.abs(values)
    bound = len(values) * float(magnitude.max())
    fraction, exponent = math.frexp(bound / 2.0**52)
    # the least power of two at or above bound / 2**52, but no less than the
    # dtype's least subnormal, of which every value is a multiple
    unit = max(
        math.ldexp(1.0, exponent - (fraction == 0.5)), np.finfo(values.dtype).smallest_subnormal
    )
    # a value below ``unit`` floors to 0 however its quotient rounds
    return bound < math.inf and np.array_equal(np.floor(magnitude / unit) * unit, magnitude)


def _counted(
    sub: SubTable, ids: np.ndarray, aggregates: Sequence[Aggregate], group_by: Sequence[str]
) -> Dict[str, np.ndarray]:
    """The grouped columns by counting over the id space: present ids in
    key order, each group's keys from its first record."""
    per_id = np.bincount(ids)
    present = np.flatnonzero(per_id)
    counts = per_id[present]
    first = np.full(len(per_id), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    columns = {g: sub.column(g)[first[present]] for g in group_by}
    for a in aggregates:
        if a.func == "count":
            columns[a.alias] = counts.astype(np.float64)
            continue
        values = sub.column(a.attr)
        sums = np.bincount(ids, weights=values)[present]
        if not sums.all():  # an exact zero is -0.0 when every value was -0.0
            negative = np.bincount(ids, weights=np.signbit(values))[present]
            sums[(sums == 0) & (negative == counts)] = -0.0
        columns[a.alias] = sums if a.func == "sum" else sums / counts
    return columns


def _segment_reduce(func: str, values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment reduction over a sorted-by-group value array.

    Over no records there is one segment (no GROUP BY) or none, and that
    one is the only empty segment there can be: its SUM is 0 (its COUNT is
    ``counts``), the other functions refuse it.
    """
    if not len(values):
        if func != "sum" and len(starts):
            raise ValueError(f"{func.upper()} over an empty input is undefined")
        return np.zeros(len(starts))
    if func in ("sum", "avg"):
        sums = np.add.reduceat(values.astype(np.float64), starts)
        return sums if func == "sum" else sums / counts
    if func == "min":
        return np.minimum.reduceat(values, starts).astype(np.float64)
    if func == "max":
        return np.maximum.reduceat(values, starts).astype(np.float64)
    raise ValueError(f"unknown aggregate {func!r}")


def aggregate_schema(
    source: Schema, aggregates: Sequence[Aggregate], group_by: Sequence[str] = ()
) -> Schema:
    """The schema :func:`aggregate` gives over records of ``source``: the
    group keys as they are, then one float64 column per aggregate.
    Refuses an attribute ``source`` lacks and a duplicate output name."""
    if not aggregates:
        raise ValueError("need at least one aggregate")
    for a in aggregates:
        if a.attr not in source and not (a.func == "count" and a.attr == "*"):
            raise KeyError(f"aggregate attribute {a.attr!r} not in {source.names}")
    for g in group_by:
        if g not in source:
            raise KeyError(f"group-by attribute {g!r} not in {source.names}")
    return Schema([
        Attribute(g, source[g].dtype, source[g].coordinate) for g in group_by
    ] + [Attribute(a.alias, "float64") for a in aggregates])


def aggregate(
    sub: SubTable,
    aggregates: Sequence[Aggregate],
    group_by: Sequence[str] = (),
    result_id: SubTableId = SubTableId(-3, 0),
) -> SubTable:
    """Aggregate ``sub``; one output record per group (one total when
    ``group_by`` is empty, even over an empty input for COUNT/SUM).

    Groups come out in key order (``NaN`` last, every ``NaN`` key a group
    of its own) and carry the key values of their first record.
    """
    # built before any reduction, so a duplicate output name is refused
    # ahead of an empty-input error
    schema = aggregate_schema(sub.schema, aggregates, group_by)
    n = sub.num_records
    if group_by:
        ids = key_ids([sub.column(g) for g in group_by])
        if n and int(ids.max()) < _COUNTED_SPACE * n and all(
            a.func == "count" or (a.func in ("sum", "avg") and _exact_sums(sub.column(a.attr)))
            for a in aggregates
        ):
            return SubTable(result_id, schema, _counted(sub, ids, aggregates, group_by))
        # sort records by key id; a group is a run of one id
        order = id_order(ids)
        ids = ids[order]
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, n))
    else:
        # every record, as it stands, is the one segment
        order, starts, counts = slice(None), np.array([0]), np.array([n])

    columns = {g: sub.column(g)[order[starts]] for g in group_by}
    for a in aggregates:
        if a.func == "count":
            columns[a.alias] = counts.astype(np.float64)
        else:
            columns[a.alias] = _segment_reduce(
                a.func, sub.column(a.attr)[order], starts, counts
            )
    return SubTable(result_id, schema, columns)
