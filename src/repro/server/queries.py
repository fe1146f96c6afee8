"""Turning arrival-stream entries into planned, executable queries.

A :class:`~repro.workloads.arrivals.QueryArrival` names only a *kind*
(scan / join / aggregate) and carries a per-query seed; this module draws
the query's concrete parameters from that seed — which table a scan hits,
the bounding box of a restricted query — plans a block of arrivals at a
time with the :class:`~repro.core.planner.QueryPlanningService`, and
packages each result as a :class:`PlannedQuery` the server can queue,
order and execute.

Every draw is a counter-based :mod:`repro.core.rng` value on the query's
own seed, so the planned workload is a pure function of the arrival
stream — independent of arrival interleaving, admission order, and of
every other query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.planner import Plan, QueryPlanningService, ScanPlan
from repro.core.rng import choose, uniform
from repro.core.view import Aggregate, AggregationView, JoinView
from repro.datamodel.bounding_box import BoundingBox
from repro.workloads.arrivals import QueryArrival
from repro.workloads.oilres import OilReservoirDataset

__all__ = ["PlannedQuery", "build_queries", "build_query", "draw_box"]


@dataclass(frozen=True)
class PlannedQuery:
    """One query of the stream, planned and ready to execute.

    ``algorithm`` is ``"scan"`` for range scans, otherwise the planner's
    QES choice for the underlying join.  ``view`` is ``None`` for scans;
    ``table`` is ``None`` for joins/aggregates.
    """

    arrival: QueryArrival
    kind: str
    algorithm: str
    plan: Union[Plan, ScanPlan]
    table: Optional[str] = None
    view: Optional[Union[JoinView, AggregationView]] = None
    where: Optional[BoundingBox] = None

    @property
    def qid(self) -> int:
        return self.arrival.qid

    @property
    def tenant(self) -> str:
        return self.arrival.tenant

    @property
    def predicted_time(self) -> float:
        return self.plan.predicted_time


def draw_box(dataset: OilReservoirDataset, seed: int, base: int = 0) -> BoundingBox:
    """A seeded axis-aligned box over the dataset's grid coordinates.

    Per dimension the box covers between 25% and 75% of the coordinate
    range (``width_frac = 0.25 + 0.5·u``), placed uniformly — selective
    enough to exercise chunk pruning, wide enough that boxes drawn by
    different queries overlap and re-reference the same chunks (the
    shared-cache workload the server exists to serve).  Bounds snap
    outward to integer grid coordinates, so a box always contains at
    least one grid point (AVG over an empty region is undefined).
    """
    intervals = {}
    for d, (name, g_d) in enumerate(zip(dataset.join_attrs, dataset.spec.g)):
        width_frac = 0.25 + 0.5 * uniform(seed, base + 2 * d)
        lo_frac = uniform(seed, base + 2 * d + 1) * (1.0 - width_frac)
        lo = math.floor(lo_frac * (g_d - 1))
        hi = math.ceil((lo_frac + width_frac) * (g_d - 1))
        intervals[name] = (float(lo), float(hi))
    return BoundingBox(intervals)


def build_query(
    dataset: OilReservoirDataset,
    planner: QueryPlanningService,
    arrival: QueryArrival,
) -> PlannedQuery:
    """Draw parameters from the arrival's seed and plan the query:
    :func:`build_queries`' block of one."""
    return build_queries(dataset, planner, [arrival])[0]


def build_queries(
    dataset: OilReservoirDataset,
    planner: QueryPlanningService,
    arrivals: Sequence[QueryArrival],
) -> List[PlannedQuery]:
    """Draw each arrival's parameters from its seed and plan the block.

    * ``scan`` — a box-restricted range scan of T1 or T2 (coin flip).
    * ``join`` — the dataset's equi-join, restricted to a drawn box half
      of the time; the planner picks the QES.
    * ``aggregate`` — AVG/COUNT over the (always box-restricted) join,
      i.e. the paper's "average oil pressure in a region" view.

    The draws are per arrival; the planning is per block
    (:meth:`~QueryPlanningService.plan_scans`,
    :meth:`~QueryPlanningService.plan_many`), and each query's plan is
    what planning it alone gives.

    Counter layout on the per-query seed: 0–9 scalar coin flips,
    10+ the box draw — disjoint from the arrival generator's counters,
    which live on the *tenant* seed.
    """
    scans: List[Tuple[int, str, BoundingBox]] = []
    joins: List[Tuple[int, JoinView]] = []
    for k, arrival in enumerate(arrivals):
        seed = arrival.seed
        if arrival.kind == "scan":
            table = dataset.left if choose(seed, 0, 2) == 0 else dataset.right
            scans.append((k, table, draw_box(dataset, seed, base=10)))
            continue
        restricted = uniform(seed, 1) < 0.5 or arrival.kind == "aggregate"
        joins.append((k, JoinView(
            f"q{arrival.qid}_join",
            dataset.left,
            dataset.right,
            on=dataset.join_attrs,
            where=draw_box(dataset, seed, base=10) if restricted else None,
        )))
    out: List[PlannedQuery] = [None] * len(arrivals)  # type: ignore[list-item]
    scan_plans = planner.plan_scans([(table, box) for _, table, box in scans])
    for (k, table, box), plan in zip(scans, scan_plans):
        out[k] = PlannedQuery(
            arrival=arrivals[k],
            kind="scan",
            algorithm="scan",
            plan=plan,
            table=table,
            where=box,
        )
    join_plans = planner.plan_many([join for _, join in joins])
    for (k, join), plan in zip(joins, join_plans):
        arrival = arrivals[k]
        view: Union[JoinView, AggregationView] = join
        if arrival.kind == "aggregate":
            view = AggregationView(
                f"q{arrival.qid}_agg",
                join,
                (Aggregate("avg", "oilp"), Aggregate("count", "*")),
            )
        out[k] = PlannedQuery(
            arrival=arrival,
            kind=arrival.kind,
            algorithm=plan.algorithm,
            plan=plan,
            view=view,
            where=join.where,
        )
    return out
