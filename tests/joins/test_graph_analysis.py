"""Tests for connectivity-graph analytics (networkx as component oracle)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.joins import build_join_index
from .graph_analysis import analyze_index, to_networkx
from repro.workloads import GridSpec, make_grid_chunk_descriptors
from repro.workloads.generator import dim_names
from .irregular import build_irregular_dataset


def index_for(spec: GridSpec):
    left = make_grid_chunk_descriptors(1, spec.g, spec.p, 16, 2)
    right = make_grid_chunk_descriptors(2, spec.g, spec.q, 16, 2)
    return build_join_index(left, right, on=dim_names(spec.ndim))


class TestAnalysis:
    def test_regular_partitioning_is_regular(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
        a = analyze_index(index_for(spec))
        assert a.is_regular
        assert a.num_edges == spec.n_e
        assert a.num_components == spec.N_C
        assert a.component_shapes[0][0] == (spec.a, spec.b, spec.E_C)
        assert a.right_degree_mean == pytest.approx(spec.n_e / spec.m_S)

    def test_describe_renders(self):
        spec = GridSpec(g=(8, 8), p=(2, 8), q=(8, 2))
        text = analyze_index(index_for(spec)).describe()
        assert "edges" in text and "regular: True" in text

    def test_irregular_partitioning_detected(self):
        ds = build_irregular_dataset((16, 16), 10, 30, num_storage=1, seed=3)
        idx = build_join_index(
            ds.metadata.table("T1").all_chunks(),
            ds.metadata.table("T2").all_chunks(),
            ("x", "y"),
        )
        a = analyze_index(idx)
        assert a.num_edges == idx.num_edges
        # KD tilings of different granularity essentially never produce
        # uniform component shapes
        assert not a.is_regular or a.num_components == 1

    def test_empty_index(self):
        idx = build_join_index([], [], on=("x",))
        a = analyze_index(idx)
        assert a.num_edges == 0 and a.num_components == 0
        assert a.is_regular  # vacuously
        assert a.max_component_edges == 0


class TestNetworkxOracle:
    def test_export_shape(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(2, 2))
        idx = index_for(spec)
        g = to_networkx(idx)
        assert g.number_of_edges() == idx.num_edges
        left = [n for n, d in g.nodes(data=True) if d["side"] == "left"]
        right = [n for n, d in g.nodes(data=True) if d["side"] == "right"]
        assert len(left) == spec.m_R and len(right) == spec.m_S
        assert nx.is_bipartite(g)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_components_match_networkx(self, data):
        """Our int-label component extraction agrees with networkx on
        random aligned partitionings — independent implementations."""
        dims = data.draw(st.integers(min_value=1, max_value=2))
        g, p, q = [], [], []
        for _ in range(dims):
            ge = data.draw(st.sampled_from([4, 8, 16]))
            p.append(data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge])))
            q.append(data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge])))
            g.append(ge)
        idx = index_for(GridSpec(g=tuple(g), p=tuple(p), q=tuple(q)))
        ours = idx.components()
        graph = to_networkx(idx)
        theirs = list(nx.connected_components(graph))
        assert len(ours) == len(theirs)
        ours_sets = sorted(
            sorted(("L", l) for l in c.left_ids) + sorted(("R", r) for r in c.right_ids)
            for c in ours
        )
        theirs_sets = sorted(sorted(component) for component in theirs)
        assert ours_sets == theirs_sets

    def test_irregular_components_match_networkx(self):
        ds = build_irregular_dataset((16, 16), 9, 25, num_storage=1, seed=11)
        idx = build_join_index(
            ds.metadata.table("T1").all_chunks(),
            ds.metadata.table("T2").all_chunks(),
            ("x", "y"),
        )
        graph = to_networkx(idx)
        assert len(idx.components()) == nx.number_connected_components(graph)
