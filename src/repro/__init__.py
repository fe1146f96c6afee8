"""repro: object-relational views over distributed scientific datasets.

A full reproduction of Narayanan, Kurc, Catalyurek & Saltz, *On Creating
Efficient Object-relational Views of Scientific Datasets* (ICPP 2006): the
BDS/DDS view-creation framework, the distributed page-level Indexed Join
and Grace Hash Query Execution Systems, the Section 5 cost models, and the
simulated coupled storage/compute cluster the evaluation runs on.

Quickstart::

    from repro import (
        GridSpec, build_oil_reservoir_dataset, DerivedDataSource, JoinView,
    )

    spec = GridSpec(g=(32, 32, 32), p=(8, 8, 8), q=(4, 4, 4))
    ds = build_oil_reservoir_dataset(spec, num_storage=5)
    view = JoinView("V1", "T1", "T2", on=("x", "y", "z"))
    dds = DerivedDataSource(view, ds.metadata, ds.provider,
                            num_storage=5, num_compute=5)
    result = dds.execute()           # planner picks IJ or GH via cost models
    print(result.plan.describe())
    print(result.report.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.cluster import ClusterSim, MachineSpec, PAPER_MACHINE, nfs_cluster, paper_cluster
from repro.core import (
    Aggregate,
    AggregationView,
    CostBreakdown,
    CostParameters,
    DerivedDataSource,
    JoinView,
    Plan,
    QueryPlanningService,
    QueryResult,
    crossover_ne_cs,
    grace_hash_cost,
    indexed_join_cost,
    io_over_f_threshold,
    materialize_table,
    preferred_algorithm,
)
from repro.datamodel import Attribute, BoundingBox, Schema, SubTable, SubTableId
from repro.faults import FaultPlan, UnrecoverableFault
from repro.joins import (
    ExecutionReport,
    GraceHashQES,
    IndexedJoinQES,
    PageJoinIndex,
    build_join_index,
    reference_join,
    schedule_two_stage,
)
from repro.metadata import MetaDataService, RTree
from repro.query import QueryExecutor, parse_query
from repro.services import BasicDataSourceService, CachingService, FunctionalProvider, StubProvider
from repro.workloads import (
    GridSpec,
    build_oil_reservoir_dataset,
    constant_edge_ratio_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "AggregationView",
    "Attribute",
    "BasicDataSourceService",
    "BoundingBox",
    "CachingService",
    "ClusterSim",
    "CostBreakdown",
    "CostParameters",
    "DerivedDataSource",
    "ExecutionReport",
    "FaultPlan",
    "FunctionalProvider",
    "GraceHashQES",
    "GridSpec",
    "IndexedJoinQES",
    "JoinView",
    "MachineSpec",
    "MetaDataService",
    "PAPER_MACHINE",
    "PageJoinIndex",
    "Plan",
    "QueryExecutor",
    "QueryPlanningService",
    "QueryResult",
    "RTree",
    "Schema",
    "StubProvider",
    "SubTable",
    "SubTableId",
    "UnrecoverableFault",
    "build_join_index",
    "build_oil_reservoir_dataset",
    "constant_edge_ratio_sweep",
    "crossover_ne_cs",
    "grace_hash_cost",
    "indexed_join_cost",
    "io_over_f_threshold",
    "materialize_table",
    "nfs_cluster",
    "paper_cluster",
    "parse_query",
    "preferred_algorithm",
    "reference_join",
    "schedule_two_stage",
    "__version__",
]
