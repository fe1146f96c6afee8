"""The grouped aggregation ``repro.query.aggregate`` is tested against.

A frozen copy of the implementation that module had before GROUP BY took
the join kernel's ``key_ids``: a structured key array, a stable
``np.argsort(keys, order=...)``, the structured ``!=`` boundary test, and
its three separate reductions (ungrouped, empty grouped, grouped).  Kept
because it is the byte-level oracle — schema, dtypes, column bytes, group
order and the bits of every ``reduceat`` sum — and shares nothing with
``key_ids``.  Not to be tidied.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.view import Aggregate
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.subtable import SubTable, SubTableId

__all__ = ["reference_aggregate"]


def _segment_reduce(func: str, values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment reduction over a sorted-by-group value array."""
    if func == "count":
        return counts.astype(np.float64)
    if func == "sum":
        sums = np.add.reduceat(values.astype(np.float64), starts)
        return sums
    if func == "avg":
        sums = np.add.reduceat(values.astype(np.float64), starts)
        return sums / counts
    if func == "min":
        return np.minimum.reduceat(values, starts).astype(np.float64)
    if func == "max":
        return np.maximum.reduceat(values, starts).astype(np.float64)
    raise ValueError(f"unknown aggregate {func!r}")


def reference_aggregate(
    sub: SubTable,
    aggregates: Sequence[Aggregate],
    group_by: Sequence[str] = (),
    result_id: SubTableId = SubTableId(-3, 0),
) -> SubTable:
    """Aggregate ``sub``; one output record per group (one total when
    ``group_by`` is empty, even over an empty input for COUNT/SUM)."""
    if not aggregates:
        raise ValueError("need at least one aggregate")
    for a in aggregates:
        if a.attr not in sub.schema and not (a.func == "count" and a.attr == "*"):
            raise KeyError(f"aggregate attribute {a.attr!r} not in {sub.schema.names}")
    for g in group_by:
        if g not in sub.schema:
            raise KeyError(f"group-by attribute {g!r} not in {sub.schema.names}")

    out_attrs = [
        Attribute(g, sub.schema[g].dtype, sub.schema[g].coordinate) for g in group_by
    ] + [Attribute(a.alias, "float64") for a in aggregates]
    out_schema = Schema(out_attrs)

    n = sub.num_records
    if not group_by:
        columns: Dict[str, np.ndarray] = {}
        for a in aggregates:
            if n == 0:
                if a.func in ("count", "sum"):
                    val = 0.0
                else:
                    raise ValueError(
                        f"{a.func.upper()} over an empty input is undefined"
                    )
            else:
                vals = (
                    np.ones(n) if a.func == "count" and a.attr == "*" else sub.column(a.attr)
                )
                val = float(
                    _segment_reduce(a.func, vals, np.array([0]), np.array([n]))[0]
                )
            columns[a.alias] = np.array([val], dtype=np.float64)
        return SubTable(result_id, out_schema, columns)

    # group: sort records by key, find group boundaries
    keys = np.empty(n, dtype=[(g, sub.schema[g].np_dtype) for g in group_by])
    for g in group_by:
        keys[g] = sub.column(g)
    order = np.argsort(keys, order=list(group_by), kind="stable")
    sorted_keys = keys[order]
    if n == 0:
        columns = {g: np.empty(0, dtype=sub.schema[g].np_dtype) for g in group_by}
        for a in aggregates:
            columns[a.alias] = np.empty(0, dtype=np.float64)
        return SubTable(result_id, out_schema, columns)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))

    columns = {g: sorted_keys[g][starts].copy() for g in group_by}
    for a in aggregates:
        if a.func == "count" and a.attr == "*":
            vals = np.ones(n)
        else:
            vals = sub.column(a.attr)[order]
        columns[a.alias] = _segment_reduce(a.func, vals, starts, counts)
    return SubTable(result_id, out_schema, columns)
