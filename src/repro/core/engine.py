"""The Derived Data Source: views bound to services, executed end to end.

A :class:`DerivedDataSource` owns one view (join or aggregation), the
MetaData Service and sub-table provider behind it, and a deployment shape
(machine spec, node counts, storage mode).  ``execute`` runs the full
pipeline of Figure 2: plan (QPS, cost models) → QES (Indexed Join or Grace
Hash on a fresh simulated cluster) → record-level range selection →
optional aggregation — returning both the answer and the execution report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.cluster import ClusterSim, ClusterTopology
from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.core.planner import Plan, QueryPlanningService
from repro.core.view import AggregationView, JoinView
from repro.datamodel.subtable import SubTable, SubTableId, bbox_mask, concat_subtables
from repro.joins.grace_hash import GraceHashQES
from repro.joins.indexed_join import IndexedJoinQES
from repro.joins.report import ExecutionReport
from repro.metadata.service import MetaDataService
from repro.query.aggregate import aggregate
from repro.services.bds import SubTableProvider

__all__ = ["DerivedDataSource", "QueryResult", "assemble_result", "bbox_mask"]


@dataclass
class QueryResult:
    """Answer + how it was computed."""

    table: Optional[SubTable]
    report: ExecutionReport
    plan: Plan

    @property
    def num_records(self) -> int:
        return self.table.num_records if self.table is not None else 0


class DerivedDataSource:
    """One view, ready to execute against a deployment."""

    def __init__(
        self,
        view: JoinView | AggregationView,
        metadata: MetaDataService,
        provider: SubTableProvider,
        num_storage: int,
        num_compute: int,
        machine: MachineSpec = PAPER_MACHINE,
        shared_nfs: bool = False,
        cache_policy: str = "lru",
        aggregate_mode: str = "central",
        reuse_caches: bool = False,
        pipeline: bool = False,
    ):
        if aggregate_mode not in ("central", "distributed"):
            raise ValueError(f"unknown aggregate_mode {aggregate_mode!r}")
        if reuse_caches and cache_policy == "belady":
            raise ValueError("cache reuse across queries is incompatible with "
                             "the offline belady policy")
        self.aggregate_mode = aggregate_mode
        #: run the Indexed Join in its pipelined (prefetching) mode, and
        #: cost it accordingly during planning
        self.pipeline = pipeline
        #: keep each joiner's Caching Service alive between executions, so a
        #: repeated (or overlapping) query hits warm caches — the
        #: cross-query role the paper assigns the Caching Service
        self.reuse_caches = reuse_caches
        self._warm_caches = None
        self.view = view
        self.join_view: JoinView = view.source if isinstance(view, AggregationView) else view
        self.metadata = metadata
        self.provider = provider
        self.machine = machine
        self.topology = ClusterTopology(num_storage, num_compute, shared_nfs=shared_nfs)
        self.cache_policy = cache_policy
        self.planner = QueryPlanningService(
            metadata,
            num_storage=num_storage,
            num_compute=num_compute,
            machine=machine,
            shared_nfs=shared_nfs,
        )

    # -- public API -------------------------------------------------------------------

    def plan(self) -> Plan:
        """Cost-model comparison for this view under this deployment."""
        return self.planner.plan(self.join_view, pipeline=self.pipeline)

    def execute(self, algorithm: str = "auto") -> QueryResult:
        """Materialise the view.

        ``algorithm`` is ``auto`` (use the planner's choice), ``indexed-join``
        or ``grace-hash``.  Functional providers yield the actual records;
        stub providers yield ``table=None`` with full timing in the report.
        """
        plan = self.plan()
        chosen = plan.algorithm if algorithm == "auto" else algorithm
        cluster = ClusterSim(self.topology, spec=self.machine)
        view = self.join_view
        if chosen == "indexed-join":
            qes = IndexedJoinQES(
                cluster,
                self.metadata,
                view.left,
                view.right,
                view.on,
                self.provider,
                index=plan.index,
                cache_policy=self.cache_policy,
                caches=self._warm_caches if self.reuse_caches else None,
                pipeline=self.pipeline,
            )
        elif chosen == "grace-hash":
            qes = GraceHashQES(
                cluster,
                self.metadata,
                view.left,
                view.right,
                view.on,
                self.provider,
                range_constraint=view.where,
            )
        else:
            raise ValueError(f"unknown algorithm {chosen!r}")
        report = qes.run()
        if self.reuse_caches and chosen == "indexed-join":
            self._warm_caches = qes.caches
        table = assemble_result(
            report, self.view, self.metadata, aggregate_mode=self.aggregate_mode
        )
        return QueryResult(table=table, report=report, plan=plan)


def assemble_result(
    report: ExecutionReport,
    view: JoinView | AggregationView,
    metadata: MetaDataService,
    aggregate_mode: str = "central",
) -> Optional[SubTable]:
    """Turn a join QES report into the view's record-level answer.

    Applies the record-level range selection (the QES prunes only at
    chunk level), concatenates per-joiner outputs (empty-schema fallback
    when nothing matched) and runs the aggregation stage for
    :class:`AggregationView`.  A free function so any executor that
    produced an :class:`ExecutionReport` — the :class:`DerivedDataSource`
    or the query server running many views on one cluster — shares one
    assembly semantics.  Returns ``None`` for model-only runs.
    """
    if report.results is None:
        return None
    join_view: JoinView = view.source if isinstance(view, AggregationView) else view
    where = join_view.where

    def filtered(table: SubTable) -> SubTable:
        # record-level range selection (QES prune only at chunk level)
        if where is not None and len(where):
            return table.select(bbox_mask(table, where))
        return table

    if isinstance(view, AggregationView) and aggregate_mode == "distributed":
        distributed = _distributed_aggregate(report, view, filtered)
        if distributed is not None:
            return distributed

    parts = [sub for per in report.results for sub in per]
    if not parts:
        left = metadata.table(join_view.left).schema
        right = metadata.table(join_view.right).schema
        schema = left.join(right, on=join_view.on)
        table = SubTable(
            SubTableId(-1, 0),
            schema,
            {a.name: np.empty(0, dtype=a.np_dtype) for a in schema},
        )
    else:
        table = concat_subtables(parts, id=SubTableId(-1, 0))
    table = filtered(table)
    if isinstance(view, AggregationView):
        table = aggregate(table, view.aggregates, view.group_by)
    return table


def _distributed_aggregate(report: ExecutionReport, view: AggregationView, filtered):
    """Per-joiner partial aggregation plus a central merge.

    Each joiner reduces its own join output to partial-state rows, so
    only those (typically tiny) partials travel to the coordinator —
    the classic two-phase aggregation the paper's future-work section
    points at.  Returns ``None`` when no joiner produced records (the
    caller's central path then defines the empty-input semantics).
    ``report.extras`` records the byte reduction.
    """
    from repro.query.partial import merge_partials, partial_aggregate

    partials = []
    raw_bytes = 0
    for per in report.results or []:
        if not per:
            continue
        table = filtered(concat_subtables(per, id=SubTableId(-1, 0)))
        if table.num_records == 0:
            continue
        raw_bytes += table.nbytes
        partials.append(
            partial_aggregate(table, view.aggregates, view.group_by)
        )
    if not partials:
        return None
    merged = merge_partials(partials, view.aggregates, view.group_by)
    report.extras["agg_raw_result_bytes"] = float(raw_bytes)
    report.extras["agg_partial_bytes"] = float(sum(p.nbytes for p in partials))
    return merged
