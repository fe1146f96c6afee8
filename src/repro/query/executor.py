"""Query execution against base tables and derived data sources.

:class:`QueryExecutor` is the client-facing entry point: register base
tables (implicitly present via the MetaData Service) and derived data
sources, then run SQL text or parsed :class:`~repro.query.ast.SelectQuery`
objects against them.

Every query runs its range part first (Section 4: "The MetaData Service
may be queried using the range part of the query to retrieve ids of all
matching sub-tables ... the BDS is asked to generate each of the
sub-tables").  A base-table SELECT is a streaming
:class:`~repro.joins.scan.ScanQES` that fetches only the named columns
and masks each chunk as it arrives; a view SELECT has its Derived Data
Source join only the part of the view inside the box.  The record-level
predicate, projection and (optional) aggregation are applied here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.cluster.cluster import ClusterSim, ClusterTopology
from repro.cluster.nodes import PAPER_MACHINE
from repro.datamodel.subtable import SubTable, SubTableId, concat_subtables
from repro.joins.scan import ScanQES
from repro.metadata.service import MetaDataService
from repro.query.aggregate import aggregate
from repro.query.ast import SelectQuery
from repro.query.parser import parse_query
from repro.query.predicate import TruePredicate
from repro.services.bds import SubTableProvider

if TYPE_CHECKING:  # avoid a circular import; engine imports query.aggregate
    from repro.core.engine import DerivedDataSource

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Routes SELECTs to base tables or registered derived data sources."""

    def __init__(self, metadata: MetaDataService, provider: SubTableProvider):
        self.metadata = metadata
        self.provider = provider
        self._dds: Dict[str, "DerivedDataSource"] = {}

    def register_dds(self, dds: "DerivedDataSource") -> None:
        name = dds.view.name
        if name in self._dds:
            raise ValueError(f"derived data source {name!r} already registered")
        self._dds[name] = dds

    # -- execution ---------------------------------------------------------------

    def execute(self, query: str | SelectQuery, algorithm: str = "auto") -> SubTable:
        """Run a query; returns the result sub-table.

        Requires a functional provider for base-table queries (a stub
        provider cannot produce records).  ``algorithm`` picks a view's
        QES: ``auto`` (the planner's choice), ``indexed-join`` or
        ``grace-hash``; anything else is refused before any work, and so
        is a column the source's catalogs do not have.
        """
        if algorithm not in ("auto", "indexed-join", "grace-hash"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if isinstance(query, str):
            query = parse_query(query)
        dds = self._dds.get(query.source)
        if dds is None:
            catalog = self.metadata.table(query.source)  # raises KeyError if unknown
        schema = catalog.schema if dds is None else dds.schema
        unknown = sorted(query.attrs() - set(schema.names))
        if unknown:
            raise KeyError(
                f"unknown column {unknown[0]!r}: {query.source} has "
                f"{', '.join(schema.names)}"
            )
        where = query.where
        if dds is None:
            table = self._scan(query, catalog)
        else:
            table = dds.execute(algorithm, box=where.bbox()).table
            if table is None:
                raise ValueError(
                    f"derived data source {dds.view.name!r} ran model-only; no records"
                )
            if not isinstance(where, TruePredicate):
                table = table.select(where.mask(table))
        return self._shape_output(query, table)

    def _scan(self, query: SelectQuery, catalog) -> SubTable:
        """The SELECT's :class:`ScanQES`, run to completion over the chunks
        the predicate's box keeps, fetching only the columns the query
        names.  Each chunk is masked by the predicate as it arrives — or,
        without one, copied straight to its place in the answer, so no
        chunk outlives its copy."""
        if not self.provider.functional:
            raise ValueError("base-table queries need a functional provider")
        where, box, schema = query.where, query.where.bbox(), catalog.schema
        needed, columns = query.attrs(), None  # ``None``: every column
        if not (query.is_star or not needed or needed == set(schema.names)):
            columns = [n for n in schema.names if n in needed]
            schema = schema.project(columns)
        # no range part, no R-tree search: every chunk is read
        chunks = catalog.find_chunks(box) if len(box) else catalog.all_chunks()
        # the up-front copy is measured only unpinned (ROADMAP item 10)
        whole = isinstance(where, TruePredicate)
        total, at = sum(c.num_records for c in chunks), 0
        answer = {a.name: np.empty(total if whole else 0, dtype=a.np_dtype) for a in schema}
        parts: List[SubTable] = []

        def sink(sub: SubTable) -> None:
            nonlocal at
            if whole:
                end = at + sub.num_records
                for name, column in answer.items():
                    column[at:end] = sub.column(name)
                at = end
                return
            mask = where.mask(sub)
            # the chunk is the scan's own: one all inside is kept as it is
            if mask.all():
                parts.append(sub)
            elif mask.any():
                parts.append(sub.select(mask))

        refs = (r for c in catalog.chunks.values() for r in c.all_refs)
        n_s = 1 + max((r.storage_node for r in refs), default=0)
        ScanQES(
            ClusterSim(ClusterTopology(n_s, 1), spec=PAPER_MACHINE), self.metadata,
            catalog.table_id, box, self.provider, chunks=chunks, columns=columns, sink=sink,
        ).run()
        if whole and at != total:
            raise ValueError(f"{catalog.name}: read {at} records, catalogued {total}")
        answer_id = SubTableId(catalog.table_id, -1)
        if parts:
            return concat_subtables(parts, id=answer_id)
        return SubTable(answer_id, schema, answer)

    @staticmethod
    def _shape_output(query: SelectQuery, table: SubTable) -> SubTable:
        if query.has_aggregates:
            aggs = tuple(i.aggregate for i in query.items if i.is_aggregate)
            return aggregate(table, aggs, query.group_by)
        if not query.is_star:
            return table.project([i.column for i in query.items])
        return table
