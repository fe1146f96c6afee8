"""The Derived Data Source: views bound to services, executed end to end.

A :class:`DerivedDataSource` is one view (join or aggregation) and its
deployment: the MetaData Service and sub-table provider behind it, the
machine spec and the node counts.  ``execute`` runs the full pipeline of
Figure 2: restrict the view to the query's box → plan (QPS, cost models) →
QES (Indexed Join or Grace Hash on a fresh simulated cluster) →
record-level range selection → optional aggregation — returning both the
answer and the execution report.

:func:`view_qes` is the one constructor that turns a planned view into a
QES, and :func:`assemble_result` the one assembly of its answer; the query
server (:mod:`repro.server.server`) runs its joins and aggregates through
both, on its shared cluster and caches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.cluster import ClusterSim, ClusterTopology
from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.core.planner import Plan, QueryPlanningService
from repro.core.view import AggregationView, JoinView
from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.schema import Schema
from repro.datamodel.subtable import SubTable, SubTableId, bbox_mask, concat_subtables
from repro.joins.grace_hash import GraceHashQES
from repro.joins.indexed_join import IndexedJoinQES
from repro.joins.qes import QES
from repro.joins.report import ExecutionReport
from repro.metadata.service import MetaDataService
from repro.query.aggregate import aggregate, aggregate_schema
from repro.services.bds import SubTableProvider

__all__ = ["DerivedDataSource", "QueryResult", "assemble_result", "bbox_mask", "view_qes"]


@dataclass
class QueryResult:
    """Answer + how it was computed: ``report`` and ``plan`` are ``None``
    when the query's box is disjoint from the view's range, so nothing
    was planned or run."""

    table: Optional[SubTable]
    report: Optional[ExecutionReport]
    plan: Optional[Plan]

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
    ):
        self.view = view
        self.join_view: JoinView = view.source if isinstance(view, AggregationView) else view
        self.metadata = metadata
        self.provider = provider
        self.machine = machine
        self.topology = ClusterTopology(num_storage, num_compute)
        self.planner = QueryPlanningService(
            metadata, num_storage=num_storage, num_compute=num_compute, machine=machine
        )

    # -- public API -------------------------------------------------------------------

    def plan(self) -> Plan:
        """Cost-model comparison for this view under this deployment."""
        return self.planner.plan(self.join_view)

    @property
    def schema(self) -> Schema:
        """The answer's schema, from the catalogs alone: the join's, or the
        aggregates' over it."""
        schema = join_schema(self.join_view, self.metadata)
        if isinstance(self.view, AggregationView):
            return aggregate_schema(schema, self.view.aggregates, self.view.group_by)
        return schema

    def execute(
        self, algorithm: str = "auto", box: Optional[BoundingBox] = None
    ) -> QueryResult:
        """Materialise the view, or the part of it inside ``box``.

        ``algorithm`` is ``auto`` (use the planner's choice), ``indexed-join``
        or ``grace-hash``.  A join view is planned and run as
        ``where = view.where ∩ box`` (Section 4's range part of a query),
        ``box`` first cut to its bounds on join keys and on attributes only
        one table has (``_prunable``): only the chunks that range keeps are
        joined, and a box disjoint from the view's range is the empty
        answer, with no cluster built and no QES run.  An aggregation view
        ignores ``box``: a WHERE over it filters groups, not the records
        they aggregate.  Functional providers yield the actual records;
        stub providers yield ``table=None`` with full timing in the report.
        """
        if algorithm not in ("auto", "indexed-join", "grace-hash"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        view = self.view
        if box is not None and isinstance(view, JoinView):
            box = self._prunable(box)
            if len(box):
                where = box if view.where is None else view.where.intersect(box)
                if where is None:
                    empty = SubTable.empty(SubTableId(-1, 0), self.schema)
                    return QueryResult(table=empty, report=None, plan=None)
                view = replace(view, where=where)
        join = view.source if isinstance(view, AggregationView) else view
        plan = self.planner.plan(join)
        chosen = plan.algorithm if algorithm == "auto" else algorithm
        cluster = ClusterSim(self.topology, spec=self.machine)
        report = view_qes(
            chosen, cluster, self.metadata, self.provider, view, plan
        ).run()
        table = assemble_result(report, view, self.metadata)
        return QueryResult(table=table, report=report, plan=plan)

    def _prunable(self, box: BoundingBox) -> BoundingBox:
        """The part of ``box`` (over the join's output names) that may prune
        both tables' chunks: bounds on join keys, and on attributes only one
        table has.  A name both tables have outside the join is the left
        table's in the answer (the right's is renamed), so a bound on it
        must not prune the right table's chunks by the right's own column."""
        left = self.metadata.table(self.join_view.left).schema
        right = self.metadata.table(self.join_view.right).schema
        return BoundingBox({
            n: box.interval(n) for n in box
            if n in self.join_view.on or (n in left) != (n in right)
        })


def join_schema(view: JoinView, metadata: MetaDataService) -> Schema:
    """The schema of ``view``'s join, from its tables' catalogs."""
    left = metadata.table(view.left).schema
    return left.join(metadata.table(view.right).schema, on=view.on)


def view_qes(
    algorithm: str,
    cluster: ClusterSim,
    metadata: MetaDataService,
    provider: SubTableProvider,
    view: JoinView | AggregationView,
    plan: Plan,
    **options,
) -> QES:
    """The QES that computes ``view``'s join on ``cluster``, not yet begun.

    The one place a view becomes an execution: ``indexed-join`` walks the
    planned ``plan.index``, ``grace-hash`` prunes chunks by the view's
    range constraint.  ``options`` go to the QES constructor as they are
    (the query server passes its shared ``caches`` and ``contain_faults``).
    """
    join = view.source if isinstance(view, AggregationView) else view
    args = (cluster, metadata, join.left, join.right, join.on, provider)
    if algorithm == "indexed-join":
        return IndexedJoinQES(*args, index=plan.index, **options)
    if algorithm == "grace-hash":
        return GraceHashQES(*args, range_constraint=join.where, **options)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def assemble_result(
    report: ExecutionReport,
    view: JoinView | AggregationView,
    metadata: MetaDataService,
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
    parts = [sub for per in report.results for sub in per]
    if parts:
        table = concat_subtables(parts, id=SubTableId(-1, 0))
    else:
        table = SubTable.empty(SubTableId(-1, 0), join_schema(join_view, metadata))
    if where is not None and len(where):
        # record-level range selection (QES prune only at chunk level)
        table = table.select(bbox_mask(table, where))
    if isinstance(view, AggregationView):
        table = aggregate(table, view.aggregates, view.group_by)
    return table

