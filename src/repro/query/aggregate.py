"""Vectorised grouped aggregation.

Implements the Section 2 requirement that view definitions "may involve
aggregation operations such [as] AVG or SUM".  Grouping uses ``np.unique``
over the group-key columns — :func:`repro.datamodel.keys.key_ids`, the ids
the join kernel matches on, so GROUP BY and ``=`` agree on which keys are
equal — and the per-group reductions use sorted-segment arithmetic: no
per-group Python loops over records.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.view import Aggregate
from repro.datamodel.keys import id_order, key_ids
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.subtable import SubTable, SubTableId

__all__ = ["aggregate"]


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
    if not aggregates:
        raise ValueError("need at least one aggregate")
    for a in aggregates:
        if a.attr not in sub.schema and not (a.func == "count" and a.attr == "*"):
            raise KeyError(f"aggregate attribute {a.attr!r} not in {sub.schema.names}")
    for g in group_by:
        if g not in sub.schema:
            raise KeyError(f"group-by attribute {g!r} not in {sub.schema.names}")

    # built before any reduction, so a duplicate output name is refused
    # ahead of an empty-input error
    schema = Schema([
        Attribute(g, sub.schema[g].dtype, sub.schema[g].coordinate) for g in group_by
    ] + [Attribute(a.alias, "float64") for a in aggregates])

    n = sub.num_records
    if group_by:
        # sort records by key id; a group is a run of one id
        ids = key_ids([sub.column(g) for g in group_by])
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
