"""Planning a block of arrivals equals planning each arrival alone.

:func:`build_queries` walks each table's R-tree once for a block's boxes,
masks the held join index once per query and labels every restricted
index of the block in one pass; :func:`build_query` is its block of one.
Over drawn grids, arrival streams and block boundaries, every field a
serve reads off a planned query must come out the same either way.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.planner import QueryPlanningService
from repro.core.view import JoinView
from repro.datamodel import BoundingBox
from repro.datamodel.subtable import SubTableId
from repro.metadata.service import MetaDataService
from repro.server.queries import build_queries, build_query
from repro.workloads import GridSpec, TenantSpec, generate_workload
from repro.workloads.oilres import build_oil_reservoir_dataset

MIX = (("scan", 1.0), ("join", 1.0), ("aggregate", 1.0))


@st.composite
def grids(draw):
    ndim = draw(st.integers(2, 3))
    g = draw(st.sampled_from([4, 8])) if ndim == 3 else draw(st.sampled_from([8, 16]))
    parts = [d for d in (1, 2, 4, 8) if d <= g]
    p = tuple(draw(st.sampled_from(parts)) for _ in range(ndim))
    q = tuple(draw(st.sampled_from(parts)) for _ in range(ndim))
    return GridSpec(g=(g,) * ndim, p=p, q=q)


def planner_for(dataset):
    return QueryPlanningService(dataset.metadata, num_storage=2, num_compute=2)


def assert_same_query(a, b):
    assert (a.qid, a.kind, a.algorithm, a.table, a.where) == (
        b.qid, b.kind, b.algorithm, b.table, b.where
    )
    if a.kind == "scan":
        assert a.plan == b.plan  # table, box, chunks and modelled transfer
        return
    assert a.view.name == b.view.name
    assert (a.plan.params, a.plan.ij_cost, a.plan.gh_cost) == (
        b.plan.params, b.plan.ij_cost, b.plan.gh_cost
    )
    assert a.plan.index.pairs == b.plan.index.pairs
    assert np.array_equal(
        a.plan.index.component_labels(), b.plan.index.component_labels()
    )


@settings(max_examples=25, deadline=None)
@given(
    spec=grids(),
    dataset_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    queries=st.integers(1, 40),
    data=st.data(),
)
def test_block_planning_equals_planning_each_arrival_alone(
    spec, dataset_seed, stream_seed, queries, data
):
    dataset = build_oil_reservoir_dataset(
        spec, num_storage=2, functional=False, seed=dataset_seed
    )
    arrivals = generate_workload(
        [TenantSpec("a", 5.0, queries, MIX, "poisson")], seed=stream_seed
    )
    cuts = sorted(data.draw(st.sets(st.integers(1, len(arrivals)), max_size=6)))
    alone_planner, block_planner = planner_for(dataset), planner_for(dataset)
    alone = [build_query(dataset, alone_planner, a) for a in arrivals]
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [len(arrivals)]):
        blocks += build_queries(dataset, block_planner, arrivals[lo:hi])
    assert len(blocks) == len(alone)
    for a, b in zip(alone, blocks):
        assert_same_query(a, b)


def test_a_catalog_grown_after_the_index_is_held_plans_as_select_would():
    """Chunks added after the join index is held — one whose id sorts
    between the index's ids, one past them — leave the index's id lists
    out of the catalog's chunk order; restricted plans must still be the
    held index cut to the endpoints the R-tree finds."""
    spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
    dataset = build_oil_reservoir_dataset(spec, num_storage=2, functional=False)
    metadata = MetaDataService()
    late = []
    for name in ("T1", "T2"):
        source = dataset.metadata.table(name)
        catalog = metadata.register_table(source.table_id, name, source.schema)
        for desc in source.all_chunks():
            (catalog.add_chunk if desc.chunk_id % 2 == 0 else late.append)(desc)
    planner = QueryPlanningService(metadata, num_storage=2, num_compute=2)
    on = dataset.join_attrs
    wheres = [
        BoundingBox({"x": (0, 7.5)}),
        BoundingBox({"x": (4, 11), "y": (2, 9)}),
        BoundingBox({"y": (12, 15)}),
        BoundingBox({"x": (100, 200)}),
    ]
    held = planner.plan(JoinView("V", "T1", "T2", on=on)).index
    planner.plan_many([JoinView("V", "T1", "T2", on=on, where=w) for w in wheres])
    for desc in late:  # ids between the held index's ids
        metadata.table(desc.table_id).add_chunk(desc)
    first = metadata.table("T1").all_chunks()[0]
    metadata.table("T1").add_chunk(  # an id past every held one
        replace(first, id=SubTableId(first.table_id, 10_000))
    )

    views = [JoinView("V", "T1", "T2", on=on, where=w) for w in wheres]
    plans = planner.plan_many(views)
    assert planner.plan(JoinView("V", "T1", "T2", on=on)).index is held
    for where, plan in zip(wheres, plans):
        left = metadata.table("T1").find_chunks(where)
        right = metadata.table("T2").find_chunks(where)
        expected = held.select([c.id for c in left], [c.id for c in right])
        assert plan.index.pairs == expected.pairs
        assert np.array_equal(
            plan.index.component_labels(), expected.component_labels()
        )
        T = sum(c.num_records for c in left)
        S = sum(c.num_records for c in right)
        assert plan.params.T == T
        assert plan.params.c_R == (max(1, round(T / len(left))) if left else 1)
        assert plan.params.c_S == (max(1, round(S / len(right))) if right else 1)
        assert plan.params.n_e == expected.num_edges
    assert any(plan.index.num_edges for plan in plans)
    assert any(
        c.chunk_id % 2 for c in metadata.table("T1").find_chunks(wheres[0])
    )  # the late chunks are found, though the held index never pairs them
