"""Tests for the page-level join index / sub-table connectivity graph.

The key property: the graph built from actual chunk bounding boxes must
reproduce the paper's closed-form statistics (n_e = N_C · E_C etc.) for
every aligned grid partitioning.
"""

import hashlib
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import BoundingBox, ChunkDescriptor, ChunkRef, SubTableId
from repro.joins import ConnectivityStats, PageJoinIndex, build_join_index
from repro.workloads import GridSpec, make_grid_chunk_descriptors
from repro.workloads.generator import dim_names
from repro.workloads.oilres import build_oil_reservoir_dataset

from .graph_analysis import to_networkx
from .index_draws import index_cases


def chunks_for(spec: GridSpec, record_size=16, num_storage=2):
    left = make_grid_chunk_descriptors(1, spec.g, spec.p, record_size, num_storage)
    right = make_grid_chunk_descriptors(2, spec.g, spec.q, record_size, num_storage)
    return left, right


def index_for(spec: GridSpec) -> PageJoinIndex:
    left, right = chunks_for(spec)
    return build_join_index(left, right, on=dim_names(spec.ndim))


class TestAgainstPaperFormulas:
    @pytest.mark.parametrize(
        "g,p,q",
        [
            ((8,), (4,), (2,)),
            ((8,), (2,), (8,)),
            ((8, 8), (4, 4), (4, 4)),
            ((8, 8), (2, 8), (8, 2)),
            ((16, 16), (4, 8), (8, 4)),
            ((8, 8, 8), (4, 4, 4), (2, 2, 2)),
            ((8, 8, 8), (2, 4, 8), (8, 4, 2)),
            ((16, 8, 4), (4, 8, 4), (16, 2, 1)),
        ],
    )
    def test_edge_count_matches_formula(self, g, p, q):
        spec = GridSpec(g=g, p=p, q=q)
        idx = index_for(spec)
        assert idx.num_edges == spec.n_e

    @pytest.mark.parametrize(
        "g,p,q",
        [
            ((8, 8), (4, 4), (4, 4)),
            ((8, 8), (2, 8), (8, 2)),
            ((8, 8, 8), (2, 4, 8), (8, 4, 2)),
        ],
    )
    def test_component_structure_matches_formula(self, g, p, q):
        spec = GridSpec(g=g, p=p, q=q)
        comps = index_for(spec).components()
        assert len(comps) == spec.N_C
        for comp in comps:
            assert comp.a == spec.a
            assert comp.b == spec.b
            assert comp.num_edges == spec.E_C

    def test_figure3_shape_a2_b4(self):
        """Figure 3's example: components with a=2 left, b=4 right sub-tables."""
        spec = GridSpec(g=(4, 8), p=(1, 4), q=(2, 1))
        assert spec.a == 2 and spec.b == 4
        comps = index_for(spec).components()
        assert all(c.a == 2 and c.b == 4 for c in comps)

    def test_nested_partitions_have_degree_one(self):
        """Right strictly finer than left: every right sub-table has one edge."""
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(2, 2))
        idx = index_for(spec)
        stats = idx.stats()
        assert stats.avg_right_degree == 1.0
        assert idx.num_edges == spec.m_S

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_aligned_partitions_match_formulas(self, data):
        dims = data.draw(st.integers(min_value=1, max_value=3))
        g, p, q = [], [], []
        for _ in range(dims):
            ge = data.draw(st.sampled_from([2, 4, 8, 16]))
            pe = data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge]))
            qe = data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge]))
            g.append(ge), p.append(pe), q.append(qe)
        spec = GridSpec(g=tuple(g), p=tuple(p), q=tuple(q))
        idx = index_for(spec)
        assert idx.num_edges == spec.n_e
        assert len(idx.components()) == spec.N_C
        stats = idx.stats()
        assert stats.num_left == spec.m_R
        assert stats.num_right == spec.m_S
        assert stats.avg_right_degree == pytest.approx(spec.n_e / spec.m_S)
        assert stats.edge_ratio(spec.c_R, spec.c_S, spec.T) == pytest.approx(spec.edge_ratio)


class TestIndexMechanics:
    def test_pairs_sorted_lexicographically(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(2, 2))
        idx = index_for(spec)
        assert idx.pairs == sorted(idx.pairs)

    def test_range_constraint_prunes(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        left, right = chunks_for(spec)
        # constrain to the lower-left quadrant only
        idx = build_join_index(left, right, on=("x", "y")).restrict(
            BoundingBox({"x": (0, 3), "y": (0, 3)}),
            {c.id: c.bbox for c in left + right},
        )
        assert idx.num_edges == 1

    def test_restrict_after_build(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        left, right = chunks_for(spec)
        idx = build_join_index(left, right, on=("x", "y"))
        boxes = {c.id: c.bbox for c in left + right}
        sub = idx.restrict(BoundingBox({"x": (0, 3)}), boxes)
        assert sub.num_edges == 2  # x-constrained to left column of 2x2 tiles

    def test_empty_inputs(self):
        idx = build_join_index([], [], on=("x",))
        assert idx.num_edges == 0
        assert idx.components() == []
        assert idx.stats().num_components == 0

    def test_no_join_attrs_rejected(self):
        with pytest.raises(ValueError):
            build_join_index([], [], on=())

    def test_join_on_subset_of_coordinates(self):
        """Joining on (x, y) only: chunks differing only in z connect."""
        spec = GridSpec(g=(4, 4, 4), p=(4, 4, 2), q=(4, 4, 2))
        left, right = chunks_for(spec)
        idx_xy = build_join_index(left, right, on=("x", "y"))
        idx_xyz = build_join_index(left, right, on=("x", "y", "z"))
        # on (x,y) every left chunk pairs with every right chunk (all share
        # the full xy extent): 2 x 2 = 4 edges; on xyz only aligned z-slabs
        assert idx_xy.num_edges == 4
        assert idx_xyz.num_edges == 2


# -- irregular partitions: the sweep against the all-pairs oracle ---------------

INF = float("inf")


def irregular_chunks(rng, table_id, n, span=6):
    """``n`` chunks with integer-lattice boxes over (x, y, z) in
    ``[-span, span + 3]``: boxes touch, repeat, degenerate to points, leave
    attributes out (unbounded), carry half-infinite bounds and sit wholly
    at one infinity."""
    chunks = []
    for cid in range(n):
        bounds = {}
        for name in ("x", "y", "z"):
            if rng.random() < 0.15:
                continue  # absent attribute: [-inf, +inf]
            lo = float(rng.integers(-span, span + 1))
            hi = lo + float(rng.integers(0, 4))
            if rng.random() < 0.1:
                lo = -INF
            if rng.random() < 0.1:
                hi = INF
            if rng.random() < 0.03:
                lo = hi = INF if rng.random() < 0.5 else -INF  # a point at infinity
            bounds[name] = (lo, hi)
        chunks.append(
            ChunkDescriptor(
                id=SubTableId(table_id, cid),
                ref=ChunkRef(storage_node=0, path=f"t{table_id}.dat", offset=cid * 8, size=8),
                attributes=("x", "y", "z"),
                extractors=("e",),
                bbox=BoundingBox(bounds),
                num_records=1,
            )
        )
    return chunks


@settings(max_examples=40, deadline=None)
@given(
    n_left=st.integers(0, 120),
    n_right=st.integers(0, 40),
    on=st.sampled_from([("x",), ("x", "y"), ("y", "z"), ("x", "y", "z")]),
    constrained=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_equals_all_pairs_oracle(n_left, n_right, on, constrained, seed):
    rng = np.random.default_rng(seed)
    left = irregular_chunks(rng, 1, n_left)
    right = irregular_chunks(rng, 2, n_right)
    constraint = None
    if constrained:
        constraint = BoundingBox({"x": (-2.0, INF), "z": (float(rng.integers(-6, 3)), 3.0)})
    idx = build_join_index(left, right, on=on)
    if constrained:
        idx = idx.restrict(constraint, {c.id: c.bbox for c in left + right})
    expected = sorted(
        (lc.id, rc.id)
        for lc in left
        for rc in right
        if lc.bbox.overlaps(rc.bbox, on=on)
        and (constraint is None or (lc.bbox.overlaps(constraint) and rc.bbox.overlaps(constraint)))
    )
    assert idx.pairs == expected
    assert idx.on == on


def oracle_pairs(left, right, on):
    """Every overlapping pair, by ``BoundingBox.overlaps``, in
    lexicographic ``(left id, right id)`` order."""
    return sorted(
        (lc.id, rc.id) for lc in left for rc in right if lc.bbox.overlaps(rc.bbox, on=on)
    )


@settings(max_examples=12, deadline=None)
@given(
    n_left=st.integers(65, 160),
    n_right=st.integers(65, 160),
    span=st.sampled_from([6, 40]),
    on=st.sampled_from([("x",), ("z", "x"), ("x", "y", "z")]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_over_tables_above_64_chunks_equals_the_oracle(n_left, n_right, span, on, seed):
    """Tables past the draws' 64-chunk cap, in ids shuffled against box
    order; the join attributes in any order (the sweep sorts on the first)."""
    rng = np.random.default_rng(seed)
    left = irregular_chunks(rng, 1, n_left, span)
    right = irregular_chunks(rng, 2, n_right, span)
    rng.shuffle(left)
    rng.shuffle(right)
    idx = build_join_index(left, right, on=on)
    assert idx.pairs == oracle_pairs(left, right, on)
    assert all(a < b for a, b in zip(idx.pairs, idx.pairs[1:]))


def test_infinite_and_touching_bounds_answer_as_interval_overlaps():
    def chunk(table_id, cid, lo, hi):
        return ChunkDescriptor(
            id=SubTableId(table_id, cid),
            ref=ChunkRef(storage_node=0, path="t.dat", offset=cid, size=1),
            attributes=("x",), extractors=("e",),
            bbox=BoundingBox({"x": (lo, hi)}), num_records=1,
        )

    spans = [(-INF, -INF), (-INF, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 2.0),
             (2.0, INF), (INF, INF), (-INF, INF), (3.0, 3.0)]
    left = [chunk(1, k, lo, hi) for k, (lo, hi) in enumerate(spans)]
    right = [chunk(2, k, lo, hi) for k, (lo, hi) in enumerate(reversed(spans))]
    idx = build_join_index(left, right, on=("x",))
    assert idx.pairs == oracle_pairs(left, right, ("x",))
    pairs = {(l.chunk_id, r.chunk_id) for l, r in idx.pairs}
    at = {span: k for k, span in enumerate(reversed(spans))}
    assert (0, at[(-INF, -INF)]) in pairs and (0, at[(-INF, 0.0)]) in pairs
    assert (6, at[(INF, INF)]) in pairs and (6, at[(2.0, INF)]) in pairs
    assert (6, at[(3.0, 3.0)]) not in pairs and (0, at[(0.0, 0.0)]) not in pairs
    assert (3, at[(1.0, 2.0)]) in pairs  # [0, 1] touches [1, 2]
    assert (2, at[(0.0, 0.0)]) in pairs  # a point meets itself


@pytest.mark.parametrize("side", ["left", "right"])
def test_one_empty_side_has_no_pairs(side):
    left, right = chunks_for(GridSpec(g=(8, 8), p=(4, 4), q=(2, 2)))
    left, right = ([], right) if side == "left" else (left, [])
    idx = build_join_index(left, right, on=("x", "y"))
    assert idx.num_edges == 0 and idx.pairs == [] and idx.components() == []
    assert (idx.left_table, idx.right_table) == (
        (-1, 2) if side == "left" else (1, -1)
    )
    assert idx.stats().num_components == 0


def test_the_t_sweep_point_matches_figure_3s_closed_form():
    """The T-sweep point of the host benchmark: 2,048 x 2,048 chunks of
    equal partitionings, so every component is one pair (a = b = 1)."""
    spec = GridSpec(g=(4096, 128, 128), p=(32, 32, 32), q=(32, 32, 32))
    left, right = chunks_for(spec)
    assert len(left) == len(right) == spec.m_R == spec.m_S == 2048
    idx = build_join_index(left, right, on=dim_names(3))
    assert idx.stats() == ConnectivityStats(
        num_edges=spec.n_e, num_components=spec.N_C, num_left=2048, num_right=2048,
        avg_left_degree=1.0, avg_right_degree=1.0, max_component_a=1, max_component_b=1,
    )
    assert spec.n_e == spec.N_C == 2048 and (spec.a, spec.b, spec.E_C) == (1, 1, 1)
    # equal partitionings enumerate their tiles alike: chunk k meets chunk k
    assert idx.pairs == [(l.id, r.id) for l, r in zip(left, right)]
    assert idx.pairs == sorted(idx.pairs)


# -- the array index against three oracles --------------------------------------
#
# all-pairs ``overlaps`` for the pairs, networkx for the components, the
# paper's closed forms for the statistics — on the built index and on what
# ``select``/``restrict`` make of it.

#: sha256 of the JSON form :func:`entry_json` writes of the serve benchmarks'
#: precomputed index (32x32 grid, 4x4 / 2x2 chunks), taken at the commit
#: before the index became arrays: the index must not move by a pair
SERVE_INDEX_SHA256 = "6ae16c1e5f35b6fad0438f6a108bb738d0bdf4363a857e3c1e0223323b9a600a"


def assert_matches_networkx(idx: PageJoinIndex):
    comps = idx.components()
    ours = [
        sorted([("L", l) for l in c.left_ids] + [("R", r) for r in c.right_ids])
        for c in comps
    ]
    theirs = [sorted(nodes) for nodes in nx.connected_components(to_networkx(idx))]
    assert sorted(ours) == sorted(theirs)
    for comp in comps:
        assert comp.left_ids == sorted(set(comp.left_ids))
        assert comp.right_ids == sorted(set(comp.right_ids))
        assert comp.pairs == sorted(comp.pairs)
        assert {l for l, _ in comp.pairs} == set(comp.left_ids)
        assert {r for _, r in comp.pairs} == set(comp.right_ids)
    firsts = [c.left_ids[0] for c in comps]
    assert firsts == sorted(firsts)  # ordered by smallest left id
    assert sorted(p for c in comps for p in c.pairs) == idx.pairs
    labels = idx.component_labels().tolist()
    assert all(pair in comps[c].pairs for c, pair in zip(labels, idx.pairs))
    stats = idx.stats()
    assert stats.num_edges == idx.num_edges == len(idx.pairs)
    assert stats.num_components == idx.num_components == len(comps)
    assert stats.num_left == len({l for l, _ in idx.pairs})
    assert stats.num_right == len({r for _, r in idx.pairs})
    assert stats.max_component_a == max((c.a for c in comps), default=0)
    assert stats.max_component_b == max((c.b for c in comps), default=0)


def entry_json(idx: PageJoinIndex) -> str:
    """The index as the JSON the MetaData Service once stored for it."""
    return json.dumps({
        "left_table": idx.left_table,
        "right_table": idx.right_table,
        "on": list(idx.on),
        "pairs": [
            [l.table_id, l.chunk_id, r.table_id, r.chunk_id] for l, r in idx.pairs
        ],
    })


@settings(max_examples=60, deadline=None)
@given(case=index_cases())
def test_array_index_against_its_oracles(case):
    idx = build_join_index(case.left, case.right, on=case.on)
    all_pairs = sorted(
        (lc.id, rc.id)
        for lc in case.left
        for rc in case.right
        if lc.bbox.overlaps(rc.bbox, on=case.on)
    )
    assert idx.pairs == all_pairs  # and so lexicographic
    assert_matches_networkx(idx)
    spec = case.spec
    if spec is not None and len(case.on) == spec.ndim:
        assert idx.stats() == ConnectivityStats(
            num_edges=spec.n_e,
            num_components=spec.N_C,
            num_left=spec.m_R,
            num_right=spec.m_S,
            avg_left_degree=spec.n_e / spec.m_R,
            avg_right_degree=spec.n_e / spec.m_S,
            max_component_a=spec.a,
            max_component_b=spec.b,
        )
    boxes = case.chunk_boxes
    for query in case.boxes:
        # pair by pair, as restrict was written before the index was arrays
        expected = [
            (l, r) for l, r in all_pairs
            if boxes[l].overlaps(query) and boxes[r].overlaps(query)
        ]
        restricted = idx.restrict(query, boxes)
        selected = idx.select(
            [c.id for c in case.left if c.bbox.overlaps(query)],
            [c.id for c in case.right if c.bbox.overlaps(query)],
        )
        assert restricted.pairs == selected.pairs == expected
        assert restricted.on == idx.on
        assert_matches_networkx(restricted)
        # pruning what is already pruned changes nothing, and the index it
        # was cut from is untouched
        assert restricted.restrict(query, boxes).pairs == expected
    assert idx.pairs == all_pairs
    # the second box lies beyond the grid on a join attribute
    assert idx.restrict(case.boxes[1], boxes).pairs == []
    assert idx.restrict(case.boxes[1], boxes).components() == []


def test_select_ignores_ids_the_index_does_not_know():
    spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
    idx = index_for(spec)
    stranger = SubTableId(9, 0)
    sub = idx.select([idx.pairs[0][0], stranger], [r for _, r in idx.pairs] + [stranger])
    assert sub.pairs == [idx.pairs[0]]
    assert idx.select([], []).pairs == []


def test_serve_grid_entry_is_byte_identical():
    ds = build_oil_reservoir_dataset(
        GridSpec(g=(32, 32), p=(4, 4), q=(2, 2)), num_storage=2, functional=False, seed=7
    )
    idx = build_join_index(
        ds.metadata.table(ds.left).all_chunks(),
        ds.metadata.table(ds.right).all_chunks(),
        ds.join_attrs,
    )
    text = entry_json(idx)
    assert hashlib.sha256(text.encode()).hexdigest() == SERVE_INDEX_SHA256
