"""Query execution against base tables and derived data sources.

:class:`QueryExecutor` is the client-facing entry point: register base
tables (implicitly present via the MetaData Service) and derived data
sources, then run SQL text or parsed :class:`~repro.query.ast.SelectQuery`
objects against them.

Base-table queries follow Section 4's range-query walk-through: "The
MetaData Service may be queried using the range part of the query to
retrieve ids of all matching sub-tables ... Once the sub-table ids are
identified, the BDS is asked to generate each of the sub-tables" — then the
record-level predicate, projection and (optional) aggregation are applied
here.  View queries delegate to the Derived Data Source and post-process
its output the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.datamodel.subtable import SubTable, SubTableId, concat_subtables
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
        ``grace-hash``; anything else is refused before any work.
        """
        if algorithm not in ("auto", "indexed-join", "grace-hash"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if isinstance(query, str):
            query = parse_query(query)
        dds = self._dds.get(query.source)
        # a table's catalog, or the view's whole answer: either carries the
        # schema every name in the query must come from
        if dds is None:
            source = self.metadata.table(query.source)  # raises KeyError if unknown
        else:
            source = self._execute_on_view(dds, algorithm)
        unknown = sorted(query.attrs() - set(source.schema.names))
        if unknown:
            raise KeyError(
                f"unknown column {unknown[0]!r}: {query.source} has "
                f"{', '.join(source.schema.names)}"
            )
        if dds is None:
            table = self._execute_on_table(query, source)
        elif isinstance(query.where, TruePredicate):
            table = source
        else:
            table = source.select(query.where.mask(source))
        return self._shape_output(query, table)

    @staticmethod
    def _needed_columns(query: SelectQuery, schema) -> Optional[list]:
        """Columns a base-table scan must materialise: every attribute the
        query names.  ``None`` means all (SELECT * or COUNT(*) over
        everything)."""
        needed = query.attrs()
        if query.is_star or not needed or needed == set(schema.names):
            return None
        return [n for n in schema.names if n in needed]

    def _execute_on_table(self, query: SelectQuery, catalog) -> SubTable:
        if not self.provider.functional:
            raise ValueError("base-table queries need a functional provider")
        # chunk-level pruning via the predicate's bounding-box relaxation,
        # column pruning via projection pushdown into the BDS
        chunks = catalog.find_chunks(query.where.bbox())
        columns = self._needed_columns(query, catalog.schema)
        out_schema = catalog.schema if columns is None else catalog.schema.project(columns)
        parts = []
        for desc in chunks:
            sub = self.provider.fetch(desc, columns=columns)
            assert isinstance(sub, SubTable)
            if not isinstance(query.where, TruePredicate):
                sub = sub.select(query.where.mask(sub))
            if sub.num_records:
                parts.append(sub)
        if parts:
            return concat_subtables(parts, id=SubTableId(catalog.table_id, -1))
        return SubTable(
            SubTableId(catalog.table_id, -1),
            out_schema,
            {a.name: np.empty(0, dtype=a.np_dtype) for a in out_schema},
        )

    def _execute_on_view(self, dds: "DerivedDataSource", algorithm: str) -> SubTable:
        """The whole view, joined by its derived data source."""
        result = dds.execute(algorithm=algorithm)
        if result.table is None:
            raise ValueError(
                f"derived data source {dds.view.name!r} ran model-only; no records"
            )
        return result.table

    @staticmethod
    def _shape_output(query: SelectQuery, table: SubTable) -> SubTable:
        if query.has_aggregates:
            aggs = tuple(i.aggregate for i in query.items if i.is_aggregate)
            return aggregate(table, aggs, query.group_by)
        if not query.is_star:
            return table.project([i.column for i in query.items])
        return table
