"""Tests for projection pushdown: column-selective chunk reads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import Schema
from repro.metadata import MetaDataService
from repro.query import QueryExecutor
from repro.services import BasicDataSourceService, FunctionalProvider
from repro.storage import (
    ColumnMajorLayout,
    DatasetWriter,
    ExtractorRegistry,
    InterleavedBlockLayout,
    RowMajorLayout,
    build_extractor,
)
from repro.storage.chunkstore import InMemoryChunkStore
from repro.storage.writer import TablePartition

WIDE_SCHEMA = Schema.of("x", "y", "a", "b", "c", "d", coordinates=("x", "y"))


def make_columns(n, seed=0):
    rng = np.random.default_rng(seed)
    return {name: (rng.random(n) * 50).astype(np.float32) for name in WIDE_SCHEMA.names}


# ---------------------------------------------------------------------------
# Layout-level column ranges
# ---------------------------------------------------------------------------


class TestColumnRanges:
    def test_row_major_not_selective(self):
        assert RowMajorLayout().column_ranges(WIDE_SCHEMA, ["x"], 240) == [(0, 240)]

    def test_column_major_ranges(self):
        layout = ColumnMajorLayout()
        n = 10
        size = n * WIDE_SCHEMA.record_size
        ranges = layout.column_ranges(WIDE_SCHEMA, ["y", "c"], size)
        # y is the 2nd column, c the 5th; 4 bytes per value
        assert ranges == [(n * 4, n * 4), (n * 16, n * 4)]

    def test_column_major_roundtrip(self):
        layout = ColumnMajorLayout()
        cols = make_columns(23)
        data = layout.serialize(cols, WIDE_SCHEMA)
        ranges = layout.column_ranges(WIDE_SCHEMA, ["x", "d"], len(data))
        picked = b"".join(data[o : o + s] for o, s in ranges)
        back = layout.deserialize(picked, WIDE_SCHEMA, ["x", "d"])
        np.testing.assert_array_equal(back["x"], cols["x"])
        np.testing.assert_array_equal(back["d"], cols["d"])
        assert set(back) == {"x", "d"}
        # bytes touched: 2 of 6 columns
        assert sum(s for _, s in ranges) == len(data) // 3

    def test_blocked_roundtrip(self):
        layout = InterleavedBlockLayout(7)
        cols = make_columns(23)
        data = layout.serialize(cols, WIDE_SCHEMA)
        ranges = layout.column_ranges(WIDE_SCHEMA, ["b"], len(data))
        picked = b"".join(data[o : o + s] for o, s in ranges)
        back = layout.deserialize(picked, WIDE_SCHEMA, ["b"])
        np.testing.assert_array_equal(back["b"], cols["b"])
        # one range per block
        assert len(ranges) == -(-23 // 7)

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            ColumnMajorLayout().column_ranges(WIDE_SCHEMA, ["nope"], 240)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ColumnMajorLayout().column_ranges(WIDE_SCHEMA, ["x"], 241)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=100),
        block=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        picks=st.sets(st.sampled_from(list(WIDE_SCHEMA.names)), min_size=1),
    )
    def test_property_column_reads_match_full_reads(self, n, block, seed, picks):
        cols = make_columns(n, seed)
        names = sorted(picks)
        for layout in (ColumnMajorLayout(), InterleavedBlockLayout(block)):
            data = layout.serialize(cols, WIDE_SCHEMA)
            ranges = layout.column_ranges(WIDE_SCHEMA, names, len(data))
            picked = b"".join(data[o : o + s] for o, s in ranges)
            back = layout.deserialize(picked, WIDE_SCHEMA, names)
            for name in names:
                np.testing.assert_array_equal(back[name], cols[name])


# ---------------------------------------------------------------------------
# BDS + executor integration
# ---------------------------------------------------------------------------


def build_setup(order: str):
    text = "layout wide {\n    order: %s;\n" % order
    for attr in WIDE_SCHEMA:
        coord = " coordinate" if attr.coordinate else ""
        text += f"    field {attr.name} {attr.dtype}{coord};\n"
    text += "}"
    ex = build_extractor(text)
    stores = [InMemoryChunkStore(0)]
    writer = DatasetWriter(stores)
    parts = [TablePartition(columns=make_columns(16, seed=i)) for i in range(4)]
    written = writer.write_table(1, ex, parts)
    svc = MetaDataService()
    svc.register_written_table("W", written)
    bds = BasicDataSourceService(0, stores[0], ExtractorRegistry([ex]))
    return svc, bds, FunctionalProvider([bds])


class TestBDSPushdown:
    def test_column_selective_read_counts_fewer_bytes(self):
        svc, bds, _ = build_setup("column_major")
        desc = svc.table("W").all_chunks()[0]
        sub = bds.produce_subtable(desc, columns=["x", "a"])
        assert sub.schema.names == ("x", "a")
        assert sub.num_records == 16
        assert bds.bytes_read == desc.size // 3  # 2 of 6 columns

    def test_row_major_falls_back_to_full_read(self):
        svc, bds, _ = build_setup("row_major")
        desc = svc.table("W").all_chunks()[0]
        sub = bds.produce_subtable(desc, columns=["x", "a"])
        assert sub.schema.names == ("x", "a")
        assert bds.bytes_read == desc.size  # whole chunk

    def test_projected_matches_full_then_project(self):
        svc, bds, _ = build_setup("column_major")
        for desc in svc.table("W").all_chunks():
            full = bds.produce_subtable(desc).project(["y", "d"])
            pushed = bds.produce_subtable(desc, columns=["y", "d"])
            assert pushed.equals_unordered(full)

    def test_unknown_column_rejected(self):
        svc, bds, _ = build_setup("column_major")
        desc = svc.table("W").all_chunks()[0]
        with pytest.raises(KeyError):
            bds.produce_subtable(desc, columns=["zz"])


class TestExecutorPushdown:
    def test_projection_query_reads_fewer_bytes(self):
        svc, bds, provider = build_setup("column_major")
        ex = QueryExecutor(svc, provider)
        out = ex.execute("SELECT a FROM W WHERE x < 25")
        assert out.schema.names == ("a",)
        # only columns x (predicate) and a (projection) were read
        total = svc.table("W").nbytes
        assert provider.bytes_read == total // 3

    def test_pushdown_and_full_scan_agree(self):
        svc, _, provider = build_setup("column_major")
        ex = QueryExecutor(svc, provider)
        pushed = ex.execute("SELECT a, b FROM W WHERE y >= 10")
        full = ex.execute("SELECT * FROM W WHERE y >= 10").project(["a", "b"])
        assert pushed.equals_unordered(full)

    def test_select_star_reads_everything(self):
        svc, _, provider = build_setup("column_major")
        ex = QueryExecutor(svc, provider)
        ex.execute("SELECT * FROM W")
        assert provider.bytes_read == svc.table("W").nbytes

    def test_aggregate_query_pushes_down(self):
        svc, _, provider = build_setup("column_major")
        ex = QueryExecutor(svc, provider)
        out = ex.execute("SELECT AVG(c) FROM W")
        assert out.num_records == 1
        assert provider.bytes_read == svc.table("W").nbytes // 6  # just c

    def test_count_star_needs_any_column(self):
        svc, _, provider = build_setup("column_major")
        ex = QueryExecutor(svc, provider)
        out = ex.execute("SELECT COUNT(*) FROM W")
        assert out.column("count_all")[0] == 64
