"""The read path as one contract: ``ChunkDescriptor`` → ``SubTable``.

A full read is the projection onto every column, so for every layout,
store and chunk size a projected ``produce_subtable`` must equal the
full one projected afterwards — schema, dtypes, bits, id and bounding
box — and ``bytes_read`` must grow by exactly the ranges the layout
named.  The ownership half (returned columns are private, writable
copies) is what a zero-copy read path will have to restate.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.datamodel import Attribute, Schema, SubTable
from repro.services import BasicDataSourceService, FunctionalProvider
from repro.storage import (
    DatasetWriter,
    Extractor,
    ExtractorRegistry,
    LocalChunkStore,
    build_extractor,
    layout_by_name,
)
from repro.storage.chunkstore import InMemoryChunkStore
from repro.storage.writer import TablePartition

SCHEMA = Schema([
    Attribute("x", "float32", coordinate=True),
    Attribute("y", "int32", coordinate=True),
    Attribute("a", "float64"),
    Attribute("b", "uint8"),
    Attribute("c", "int16"),
])
LAYOUTS = ["row_major", "column_major", "blocked(3)", "blocked(1024)", "compressed_column"]
WHOLE_CHUNK = {"row_major", "compressed_column"}
COUNTS = [0, 1, 7, 1000]
SUBSETS = [
    list(c) for k in range(1, len(SCHEMA) + 1)
    for c in itertools.combinations(SCHEMA.names, k)
]


def make_columns(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": np.repeat(np.arange(-(-n // 4), dtype=np.float32), 4)[:n],
        "y": rng.integers(-(2**31), 2**31 - 1, n).astype(np.int32),
        "a": rng.standard_normal(n),
        "b": rng.integers(0, 256, n).astype(np.uint8),
        "c": rng.integers(-(2**15), 2**15 - 1, n).astype(np.int16),
    }


def descriptor_text(layout):
    fields = "".join(
        f"    field {a.name} {a.dtype}{' coordinate' if a.coordinate else ''};\n"
        for a in SCHEMA
    )
    return f"layout mixed {{\n    order: {layout};\n{fields}}}"


def make_stores(kind, root, nodes):
    if kind == "local":
        return [LocalChunkStore(root, i) for i in range(nodes)]
    return [InMemoryChunkStore(i) for i in range(nodes)]


def build(layout, store_kind, root, counts, extractor=None, nodes=1, replication=1):
    """Write one chunk per entry of ``counts``; returns (descs, [bds per node])."""
    extractor = extractor or build_extractor(descriptor_text(layout))
    stores = make_stores(store_kind, root, nodes)
    parts = [TablePartition(columns=make_columns(n, seed=i)) for i, n in enumerate(counts)]
    written = DatasetWriter(stores).write_table(1, extractor, parts, replication=replication)
    registry = ExtractorRegistry([extractor])
    return written.chunks, [BasicDataSourceService(i, s, registry) for i, s in enumerate(stores)]


def assert_same_subtable(got, want, bbox):
    assert got.id == want.id
    assert got.schema == want.schema
    assert got.num_records == want.num_records
    for name in want.schema.names:
        assert got.column(name).dtype == want.column(name).dtype
        assert got.column(name).tobytes() == want.column(name).tobytes()
    assert got.bbox == bbox


def any_order(names):
    """``names`` rotated and reversed: never schema order for two or more."""
    return (names[1:] + names[:1])[::-1]


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("store_kind", ["memory", "local"])
@pytest.mark.parametrize("layout", LAYOUTS)
class TestProjectionEqualsFullThenProject:
    def test_every_subset_in_any_order(self, layout, store_kind, n, tmp_path):
        (desc,), (bds,) = build(layout, store_kind, tmp_path, [n])
        full = bds.produce_subtable(desc)
        assert_same_subtable(full, SubTable(desc.id, SCHEMA, make_columns(n)), desc.bbox)
        for names in SUBSETS:
            for asked in (names, any_order(names), iter(names)):
                pushed = bds.produce_subtable(desc, columns=asked)
                assert_same_subtable(pushed, full.project(names), desc.bbox)

    def test_bytes_read_is_the_ranges_named(self, layout, store_kind, n, tmp_path):
        (desc,), (bds,) = build(layout, store_kind, tmp_path, [n])
        bds.produce_subtable(desc)
        assert bds.bytes_read == desc.size
        for names in SUBSETS:
            ranges = layout_by_name(layout).column_ranges(SCHEMA, names, desc.size)
            before = bds.bytes_read
            bds.produce_subtable(desc, columns=names)
            delta = bds.bytes_read - before
            assert delta == sum(size for _, size in ranges) <= desc.size
            if layout in WHOLE_CHUNK:
                assert ranges == [(0, desc.size)]
            else:
                wanted = sum(SCHEMA[name].itemsize for name in names)
                assert delta == n * wanted


@pytest.mark.parametrize("layout", LAYOUTS)
class TestFullReadIsOneRange:
    def test_every_column_is_the_whole_chunk(self, layout):
        size = 7 * SCHEMA.record_size if layout != "compressed_column" else 99
        impl = layout_by_name(layout)
        assert impl.column_ranges(SCHEMA, None, size) == [(0, size)]
        assert impl.column_ranges(SCHEMA, list(SCHEMA.names), size) == [(0, size)]


@pytest.mark.parametrize("store_kind", ["memory", "local"])
@pytest.mark.parametrize("layout", LAYOUTS)
class TestMalformedRequests:
    def test_unknown_column(self, layout, store_kind, tmp_path):
        (desc,), (bds,) = build(layout, store_kind, tmp_path, [7])
        with pytest.raises(KeyError, match="nope"):
            bds.produce_subtable(desc, columns=["x", "nope"])
        assert bds.bytes_read == 0

    def test_no_columns(self, layout, store_kind, tmp_path):
        (desc,), (bds,) = build(layout, store_kind, tmp_path, [7])
        with pytest.raises(ValueError):
            bds.produce_subtable(desc, columns=[])

    @pytest.mark.parametrize("columns", [None, ["a"]], ids=["full", "projected"])
    def test_chunk_size_off_by_one(self, layout, store_kind, columns, tmp_path):
        # a chunk whose size is not a multiple of the record size, a
        # truncated compressed chunk and an over-long one
        descs, (bds,) = build(layout, store_kind, tmp_path, [7, 7])
        ref = descs[0].ref
        for size in (ref.size - 1, ref.size + 1):
            bad = replace(descs[0], ref=replace(ref, size=size))
            with pytest.raises(ValueError):
                bds.produce_subtable(bad, columns=columns)


class TestHandWrittenExtractor:
    """The documented extension point: an ``Extractor`` subclass that knows
    nothing about byte ranges still serves projected reads."""

    class CsvExtractor(Extractor):
        name = "csv"
        schema = SCHEMA

        def encode(self, subtable):
            rows = zip(*(subtable.column(n).tolist() for n in self.schema.names))
            return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()

        def extract(self, raw, id, bbox=None, columns=None):
            rows = [line.split(",") for line in raw.decode().splitlines()]
            full = {
                a.name: np.array([row[i] for row in rows], dtype=np.float64).astype(a.np_dtype)
                for i, a in enumerate(self.schema)
            }
            schema = self.projected_schema(columns)
            return SubTable(id, schema, {n: full[n] for n in schema.names}, bbox=bbox)

    def test_serves_full_and_projected_reads(self, tmp_path):
        (desc,), (bds,) = build(None, "local", tmp_path, [7], extractor=self.CsvExtractor())
        full = bds.produce_subtable(desc)
        want = make_columns(7)
        np.testing.assert_array_equal(full.column("a"), want["a"])
        pushed = bds.produce_subtable(desc, columns=["c", "x"])
        assert_same_subtable(pushed, full.project(["x", "c"]), desc.bbox)
        assert bds.bytes_read == 2 * desc.size

    def test_out_of_bounds_range_rejected(self, tmp_path):
        class Overreach(self.CsvExtractor):
            def column_ranges(self, names, chunk_size):
                return [(0, chunk_size + 1)]

        (desc,), (bds,) = build(None, "memory", tmp_path, [7], extractor=Overreach())
        with pytest.raises(ValueError, match="outside chunk"):
            bds.produce_subtable(desc)
        assert bds.bytes_read == 0


@pytest.mark.parametrize("store_kind", ["memory", "local"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_replica_answers_like_the_primary(layout, store_kind, tmp_path):
    descs, bds = build(layout, store_kind, tmp_path, [7, 1000, 0], nodes=3, replication=2)
    provider = FunctionalProvider(bds)
    for desc in descs:
        primary, replica = desc.ref.storage_node, desc.replicas[0].storage_node
        assert primary != replica
        for names in (None, ["a"], ["c", "y"]):
            want = provider.fetch(desc, columns=names)
            before = {b.storage_node: b.bytes_read for b in bds}
            got = provider.fetch(desc, columns=names, node=replica)
            assert_same_subtable(got, want, desc.bbox)
            charged = {b.storage_node: b.bytes_read - before[b.storage_node] for b in bds}
            ranges = layout_by_name(layout).column_ranges(SCHEMA, names, desc.size)
            assert charged.pop(replica) == sum(size for _, size in ranges)
            assert not any(charged.values())


@pytest.mark.parametrize("columns", [None, ["y", "a", "b"]], ids=["full", "projected"])
@pytest.mark.parametrize("store_kind", ["memory", "local"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_returned_columns_are_private_copies(layout, store_kind, columns, tmp_path):
    (desc,), (bds,) = build(layout, store_kind, tmp_path, [7])
    first = bds.produce_subtable(desc, columns=columns)
    names = first.schema.names
    for left, right in itertools.combinations(names, 2):
        assert not np.shares_memory(first.column(left), first.column(right))
    kept = {name: first.column(name).tobytes() for name in names}
    for name in names:
        first.column(name)[...] = 0
    second = bds.produce_subtable(desc, columns=columns)
    for name in names:
        assert second.column(name).tobytes() == kept[name]
        assert not np.shares_memory(first.column(name), second.column(name))
