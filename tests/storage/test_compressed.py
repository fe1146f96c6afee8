"""Tests for the compressed chunk layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import Schema
from repro.storage import CompressedColumnLayout, layout_by_name
from repro.storage.extractor import build_extractor
from repro.workloads.generator import make_grid_partitions
from repro.workloads.oilres import oil_reservoir_schemas

LAYOUT = CompressedColumnLayout()
SCHEMA = Schema.of("x", "y", "wp", coordinates=("x", "y"))


def grid_columns(gx=16, gy=16):
    xs, ys = np.meshgrid(
        np.arange(gx, dtype=np.float32), np.arange(gy, dtype=np.float32), indexing="ij"
    )
    rng = np.random.default_rng(0)
    return {
        "x": xs.reshape(-1),
        "y": ys.reshape(-1),
        "wp": rng.random(gx * gy).astype(np.float32),
    }


class TestRoundTrip:
    def test_grid_data(self):
        cols = grid_columns()
        data = LAYOUT.serialize(cols, SCHEMA)
        back = LAYOUT.deserialize(data, SCHEMA)
        for name in SCHEMA.names:
            np.testing.assert_array_equal(back[name], cols[name])

    def test_empty(self):
        cols = {n: np.empty(0, np.float32) for n in SCHEMA.names}
        data = LAYOUT.serialize(cols, SCHEMA)
        back = LAYOUT.deserialize(data, SCHEMA)
        for name in SCHEMA.names:
            assert len(back[name]) == 0

    def test_single_record(self):
        cols = {n: np.ones(1, np.float32) for n in SCHEMA.names}
        back = LAYOUT.deserialize(LAYOUT.serialize(cols, SCHEMA), SCHEMA)
        assert back["x"][0] == 1.0

    def test_mixed_dtypes(self):
        schema = Schema.of("i", "f", dtype="float64")
        from repro.datamodel import Attribute

        schema = Schema([Attribute("i", "int32"), Attribute("f", "float64")])
        cols = {
            "i": np.repeat(np.arange(10, dtype=np.int32), 20),
            "f": np.linspace(0, 1, 200),
        }
        back = LAYOUT.deserialize(LAYOUT.serialize(cols, schema), schema)
        np.testing.assert_array_equal(back["i"], cols["i"])
        np.testing.assert_array_equal(back["f"], cols["f"])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=300),
        style=st.sampled_from(["random", "constant", "ramp", "blocks"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_lossless(self, n, style, seed):
        rng = np.random.default_rng(seed)
        if style == "random":
            col = rng.random(n).astype(np.float32)
        elif style == "constant":
            col = np.full(n, 3.25, dtype=np.float32)
        elif style == "ramp":
            col = np.arange(n, dtype=np.float32)
        else:
            col = np.repeat(
                rng.random(max(1, n // 7 + 1)).astype(np.float32), 7
            )[:n]
        schema = Schema.of("v")
        back = LAYOUT.deserialize(LAYOUT.serialize({"v": col}, schema), schema)
        np.testing.assert_array_equal(back["v"], col)


class TestCompression:
    def test_grid_coordinates_compress_well(self):
        cols = grid_columns(32, 32)
        compressed = LAYOUT.serialize(cols, SCHEMA)
        raw_size = 1024 * SCHEMA.record_size
        # x is 32 runs, y is a sawtooth with delta-RLE of a few runs per
        # block; wp stays raw -> roughly 1/3 of the raw size
        assert len(compressed) < raw_size * 0.45

    def test_random_data_does_not_blow_up(self):
        rng = np.random.default_rng(1)
        cols = {n: rng.random(500).astype(np.float32) for n in SCHEMA.names}
        compressed = LAYOUT.serialize(cols, SCHEMA)
        raw_size = 500 * SCHEMA.record_size
        overhead = 8 + 3 * 5  # header + per-column headers
        assert len(compressed) <= raw_size + overhead


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(ValueError):
            LAYOUT.deserialize(b"\x01", SCHEMA)

    def test_truncated_column(self):
        cols = grid_columns(4, 4)
        data = LAYOUT.serialize(cols, SCHEMA)
        with pytest.raises(ValueError):
            LAYOUT.deserialize(data[:-5], SCHEMA)

    def test_trailing_garbage(self):
        cols = grid_columns(4, 4)
        data = LAYOUT.serialize(cols, SCHEMA)
        with pytest.raises(ValueError):
            LAYOUT.deserialize(data + b"\x00\x00", SCHEMA)

    def test_no_column_reads(self):
        assert LAYOUT.column_ranges(SCHEMA, ["x"], 100) == [(0, 100)]


class TestIntegration:
    def test_registered_by_name(self):
        assert isinstance(layout_by_name("compressed_column"), CompressedColumnLayout)

    def test_descriptor_language_supports_it(self):
        ex = build_extractor(
            "layout packed {\n    order: compressed_column;\n"
            "    field x float32 coordinate;\n    field v float32;\n}"
        )
        from repro.datamodel import SubTable, SubTableId

        sub = SubTable(
            SubTableId(1, 0),
            ex.schema,
            {
                "x": np.repeat(np.arange(8, dtype=np.float32), 4),
                "v": np.arange(32, dtype=np.float32),
            },
        )
        raw = ex.encode(sub)
        assert len(raw) < sub.nbytes  # actually compressed
        back = ex.extract(raw, SubTableId(1, 0))
        assert back.equals_unordered(sub)

    def test_end_to_end_dataset_with_compression(self):
        """Write a table compressed, query it through the normal stack."""
        from repro.metadata import MetaDataService
        from repro.query import QueryExecutor
        from repro.services import BasicDataSourceService, FunctionalProvider
        from repro.storage import DatasetWriter, ExtractorRegistry
        from repro.storage.chunkstore import InMemoryChunkStore

        t1_schema, _ = oil_reservoir_schemas(2)
        text = ("layout comp_t1 {\n    order: compressed_column;\n"
                "    field x float32 coordinate;\n"
                "    field y float32 coordinate;\n"
                "    field oilp float32;\n}")
        ex = build_extractor(text)
        stores = [InMemoryChunkStore(0)]
        writer = DatasetWriter(stores)
        parts = make_grid_partitions((16, 16), (8, 8), t1_schema)
        written = writer.write_table(1, ex, parts)
        raw_bytes = 256 * t1_schema.record_size
        assert written.nbytes < raw_bytes  # storage footprint shrank
        svc = MetaDataService()
        svc.register_written_table("T1", written)
        provider = FunctionalProvider(
            [BasicDataSourceService(0, stores[0], ExtractorRegistry([ex]))]
        )
        executor = QueryExecutor(svc, provider)
        out = executor.execute("SELECT * FROM T1 WHERE x IN [4, 7] AND y IN [0, 3]")
        assert out.num_records == 16
