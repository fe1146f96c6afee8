"""Tests for irregular (KD-split) partitionings."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import GraceHashQES, IndexedJoinQES, paper_cluster, reference_join
from repro.datamodel.subtable import concat_subtables
from repro.joins import build_join_index
from ..joins.irregular import (
    build_irregular_dataset,
    kd_tiles,
    make_irregular_partitions,
)
from repro.workloads.oilres import oil_reservoir_schemas


class TestKDTiles:
    def test_tiles_cover_grid_exactly(self):
        g = (16, 12)
        tiles = kd_tiles(g, max_records=10, seed=3)
        cells = set()
        for tile in tiles:
            (x0, x1), (y0, y1) = tile
            for x in range(x0, x1):
                for y in range(y0, y1):
                    assert (x, y) not in cells, "tiles overlap"
                    cells.add((x, y))
        assert len(cells) == 16 * 12

    def test_tiles_respect_max_records(self):
        tiles = kd_tiles((32, 32), max_records=17, seed=0)
        for tile in tiles:
            records = math.prod(hi - lo for lo, hi in tile)
            assert records <= 17

    def test_deterministic_per_seed(self):
        assert kd_tiles((16, 16), 10, seed=5) == kd_tiles((16, 16), 10, seed=5)
        assert kd_tiles((16, 16), 10, seed=5) != kd_tiles((16, 16), 10, seed=6)

    def test_single_tile_when_fits(self):
        tiles = kd_tiles((4, 4), max_records=100)
        assert tiles == [((0, 4), (0, 4))]

    def test_validation(self):
        with pytest.raises(ValueError):
            kd_tiles((4,), 0)
        with pytest.raises(ValueError):
            kd_tiles((0,), 4)

    @settings(max_examples=40, deadline=None)
    @given(
        gx=st.integers(min_value=1, max_value=24),
        gy=st.integers(min_value=1, max_value=24),
        max_records=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_exact_tiling(self, gx, gy, max_records, seed):
        tiles = kd_tiles((gx, gy), max_records, seed=seed)
        total = sum(math.prod(hi - lo for lo, hi in t) for t in tiles)
        assert total == gx * gy  # cover
        # disjoint: pairwise box-disjointness via sorting on first dim is
        # expensive; the count equality above plus per-tile positivity
        # implies disjointness given they're all inside the grid
        for tile in tiles:
            for (lo, hi), g in zip(tile, (gx, gy)):
                assert 0 <= lo < hi <= g


class TestIrregularPartitions:
    def test_partition_data_matches_tiles(self):
        schema = oil_reservoir_schemas(2)[0]
        tiles = kd_tiles((8, 8), 10, seed=1)
        parts = make_irregular_partitions((8, 8), tiles, schema, seed=2)
        assert len(parts) == len(tiles)
        total = sum(len(p.columns["x"]) for p in parts)
        assert total == 64
        for part, tile in zip(parts, tiles):
            (x0, x1), (y0, y1) = tile
            assert part.columns["x"].min() == x0
            assert part.columns["x"].max() == x1 - 1
            assert part.bbox.interval("y").hi == y1 - 1


class TestIrregularEndToEnd:
    def test_join_index_counts_match_bruteforce(self):
        ds = build_irregular_dataset((16, 16), 12, 20, num_storage=2, seed=4)
        t1 = ds.metadata.table("T1").all_chunks()
        t2 = ds.metadata.table("T2").all_chunks()
        idx = build_join_index(t1, t2, on=("x", "y"))
        brute = sum(
            1 for a in t1 for b in t2 if a.bbox.overlaps(b.bbox, on=("x", "y"))
        )
        assert idx.num_edges == brute

    def test_both_qes_match_oracle_on_irregular_data(self):
        ds = build_irregular_dataset((16, 16), 12, 20, num_storage=2, seed=7)
        oracle = reference_join(ds.metadata, ds.provider, "T1", "T2", ("x", "y"))
        assert oracle.num_records == 256  # selectivity 1 over the full grid
        for cls in (IndexedJoinQES, GraceHashQES):
            report = cls(
                paper_cluster(2, 2), ds.metadata, "T1", "T2", ("x", "y"), ds.provider
            ).run()
            got = concat_subtables(
                [s for per in report.results for s in per], id=oracle.id
            )
            assert got.equals_unordered(oracle), cls.algorithm

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_property_irregular_join_is_selectivity_one(self, seed):
        ds = build_irregular_dataset((8, 8), 7, 13, num_storage=2, seed=seed)
        report = IndexedJoinQES(
            paper_cluster(2, 2), ds.metadata, "T1", "T2", ("x", "y"), ds.provider
        ).run()
        assert report.result_tuples == 64
