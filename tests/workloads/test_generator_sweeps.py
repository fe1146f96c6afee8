"""Tests for the grid generator formulas and sweep constructions."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    GridSpec,
    constant_edge_ratio_sweep,
    make_grid_partitions,
)
from repro.workloads.oilres import (
    build_oil_reservoir_dataset,
    oil_reservoir_schema_full,
    oil_reservoir_schemas,
)
from repro.workloads.sweeps import tuple_count_sweep


class TestGridSpecFormulas:
    def test_paper_formula_example(self):
        # g=(8,8,8), p=(2,4,8), q=(8,4,2):
        spec = GridSpec(g=(8, 8, 8), p=(2, 4, 8), q=(8, 4, 2))
        assert spec.component_size == (8, 4, 8)
        assert spec.N_C == 512 // (8 * 4 * 8)  # T / prod(C) = 2
        assert spec.E_C == math.ceil(8 / 2) * 1 * math.ceil(8 / 2)
        assert spec.n_e == spec.N_C * spec.E_C

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(g=(8,), p=(3,), q=(2,))  # 3 does not divide 8
        with pytest.raises(ValueError):
            GridSpec(g=(8,), p=(4,), q=(8, 8))  # length mismatch
        with pytest.raises(ValueError):
            GridSpec(g=(12,), p=(4,), q=(6,))  # 4 and 6 not aligned

    def test_identities(self):
        """n_e = T / prod(min); edge_ratio = 1/N_C; ne_cs = T * degree."""
        spec = GridSpec(g=(16, 16), p=(4, 8), q=(8, 2))
        prod_min = 4 * 2
        assert spec.n_e == spec.T // prod_min
        assert spec.edge_ratio == pytest.approx(1 / spec.N_C)
        degree = max(1, 8 // 4) * max(1, 2 // 8 or 1)
        assert spec.ne_cs == spec.T * (8 // 4) * 1

    @settings(max_examples=50)
    @given(data=st.data())
    def test_identity_properties(self, data):
        dims = data.draw(st.integers(min_value=1, max_value=3))
        g, p, q = [], [], []
        for _ in range(dims):
            ge = data.draw(st.sampled_from([4, 8, 16, 32]))
            pe = data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16, 32) if s <= ge]))
            qe = data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16, 32) if s <= ge]))
            g.append(ge), p.append(pe), q.append(qe)
        spec = GridSpec(g=tuple(g), p=tuple(p), q=tuple(q))
        prod_min = math.prod(min(a, b) for a, b in zip(p, q))
        assert spec.n_e == spec.T // prod_min
        assert spec.edge_ratio == pytest.approx(1 / spec.N_C)
        assert spec.a * spec.c_R == spec.b * spec.c_S == math.prod(spec.component_size)


class TestPartitionGeneration:
    def test_partitions_tile_grid_exactly(self):
        schema = oil_reservoir_schemas(2)[0]
        parts = make_grid_partitions((8, 8), (4, 2), schema)
        assert len(parts) == 2 * 4
        total = sum(len(p.columns["x"]) for p in parts)
        assert total == 64
        points = set()
        for p in parts:
            for x, y in zip(p.columns["x"], p.columns["y"]):
                points.add((float(x), float(y)))
        assert len(points) == 64  # no duplicates -> exact tiling

    def test_mismatched_schema_rejected(self):
        schema = oil_reservoir_schemas(3)[0]  # x,y,z coords
        with pytest.raises(ValueError):
            make_grid_partitions((8, 8), (4, 4), schema)

    def test_value_fn_applied(self):
        schema = oil_reservoir_schemas(2)[0]
        parts = make_grid_partitions(
            (4, 4), (4, 4), schema, value_fns={"oilp": lambda c: c["x"] * 2}
        )
        import numpy as np

        np.testing.assert_array_equal(parts[0].columns["oilp"], parts[0].columns["x"] * 2)

    def test_full_schema(self):
        s = oil_reservoir_schema_full()
        assert len(s) == 21
        assert s.coordinate_names == ("x", "y", "z")


class TestSweeps:
    def test_constant_edge_ratio_doubles_ne_cs(self):
        points = constant_edge_ratio_sweep((64, 64, 64), (16, 16, 16), steps=5)
        values = [p.spec.ne_cs for p in points]
        for a, b in zip(values, values[1:]):
            assert b == 2 * a
        ratios = {p.spec.edge_ratio for p in points}
        assert len(ratios) == 1

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            constant_edge_ratio_sweep((64, 64), (16,), steps=3)
        with pytest.raises(ValueError):
            constant_edge_ratio_sweep((64, 64), (48, 16), steps=3)

    def test_sweep_stops_when_unrefinable(self):
        points = constant_edge_ratio_sweep((4,), (4,), steps=10)
        assert len(points) <= 3  # p halves 4 -> 2 -> 1, then stops

    def test_tuple_count_sweep(self):
        base = GridSpec((8, 8), (4, 4), (4, 4))
        points = tuple_count_sweep(base, (1, 2, 4))
        assert [p.spec.T for p in points] == [64, 128, 256]
        # degrees unchanged
        assert all(p.spec.E_C == base.E_C for p in points)
        with pytest.raises(ValueError):
            tuple_count_sweep(base, (0,))


class TestDatasetBuilder:
    def test_functional_and_stub_builds_agree_on_metadata(self):
        spec = GridSpec((8, 8), (4, 4), (2, 2))
        func = build_oil_reservoir_dataset(spec, num_storage=2, functional=True)
        stub = build_oil_reservoir_dataset(spec, num_storage=2, functional=False)
        for name in ("T1", "T2"):
            fc = func.metadata.table(name)
            sc = stub.metadata.table(name)
            assert fc.num_records == sc.num_records
            assert len(fc.chunks) == len(sc.chunks)
            assert fc.nbytes == sc.nbytes
            for cid in fc.chunks:
                assert fc.chunks[cid].bbox == sc.chunks[cid].bbox
                assert fc.chunks[cid].ref.storage_node == sc.chunks[cid].ref.storage_node

    def test_extra_attributes(self):
        spec = GridSpec((4, 4), (2, 2), (2, 2))
        ds = build_oil_reservoir_dataset(spec, 1, extra_attributes=3)
        # 2-D grid: x, y + oilp + 3 extras = 6 attributes
        assert len(ds.metadata.table("T1").schema) == 6
        assert ds.metadata.table("T1").schema.record_size == 6 * 4

    def test_invalid_storage_count(self):
        with pytest.raises(ValueError):
            build_oil_reservoir_dataset(GridSpec((4,), (2,), (2,)), 0)
