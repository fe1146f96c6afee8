"""Tests for chunk stores, placement policies and the dataset writer."""

import gc
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datamodel import ChunkRef
from repro.storage import (
    BlockCyclicPlacement,
    ContiguousPlacement,
    DatasetWriter,
    HashPlacement,
    LocalChunkStore,
    build_extractor,
)
from repro.storage.chunkstore import InMemoryChunkStore
from repro.storage.extractor import ExtractorRegistry
from repro.storage.writer import TablePartition
from repro.workloads import GridSpec, build_oil_reservoir_dataset

DESCRIPTOR = """
layout t1 {
    order: row_major;
    field x    float32 coordinate;
    field oilp float32;
}
"""

# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_block_cyclic_round_robin(self):
        p = BlockCyclicPlacement(3)
        assert [p.node_for(i, 7) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_block_cyclic_block2(self):
        p = BlockCyclicPlacement(2, block=2)
        assert [p.node_for(i, 8) for i in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_contiguous(self):
        p = ContiguousPlacement(3)
        assert [p.node_for(i, 6) for i in range(6)] == [0, 0, 1, 1, 2, 2]

    def test_contiguous_uneven(self):
        p = ContiguousPlacement(3)
        nodes = [p.node_for(i, 7) for i in range(7)]
        assert len(nodes) == 7
        assert max(nodes) <= 2 and min(nodes) >= 0
        assert nodes == sorted(nodes)  # contiguity

    def test_hash_deterministic(self):
        a, b = HashPlacement(4, seed=7), HashPlacement(4, seed=7)
        assert [a.node_for(i, 20) for i in range(20)] == [b.node_for(i, 20) for i in range(20)]

    def test_out_of_range_ordinal(self):
        for p in (BlockCyclicPlacement(2), ContiguousPlacement(2), HashPlacement(2)):
            with pytest.raises(IndexError):
                p.node_for(5, 5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BlockCyclicPlacement(0)
        with pytest.raises(ValueError):
            BlockCyclicPlacement(2, block=0)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=200),
    )
    def test_block_cyclic_balance(self, nodes, block, total):
        """Block-cyclic placement never puts two more blocks on one node
        than on another."""
        p = BlockCyclicPlacement(nodes, block=block)
        assign = [p.node_for(i, total) for i in range(total)]
        counts = [assign.count(i) for i in range(nodes)]
        assert max(counts) - min(counts) <= block


# ---------------------------------------------------------------------------
# Chunk stores
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("store_kind", ["local", "memory"])
class TestChunkStore:
    @pytest.fixture
    def store(self, store_kind, tmp_path):
        if store_kind == "local":
            return LocalChunkStore(tmp_path, node_id=0)
        return InMemoryChunkStore(node_id=0)

    def test_append_read_roundtrip(self, store):
        ref1 = store.append(1, b"hello")
        ref2 = store.append(1, b"world!")
        assert ref1.offset == 0 and ref1.size == 5
        assert ref2.offset == 5 and ref2.size == 6
        assert store.read(ref1) == b"hello"
        assert store.read(ref2) == b"world!"

    def test_tables_are_separate_files(self, store):
        r1 = store.append(1, b"aa")
        r2 = store.append(2, b"bb")
        assert r1.path != r2.path
        assert r2.offset == 0

    def test_wrong_node_rejected(self, store):
        ref = ChunkRef(storage_node=9, path="x", offset=0, size=1)
        with pytest.raises(ValueError):
            store.read(ref)


def test_local_store_persists_across_instances(tmp_path):
    s1 = LocalChunkStore(tmp_path, node_id=0)
    ref = s1.append(1, b"persist me")
    s2 = LocalChunkStore(tmp_path, node_id=0)
    assert s2.read(ref) == b"persist me"
    # appends continue at the right offset
    ref2 = s2.append(1, b"more")
    assert ref2.offset == ref.size


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropped_file_backed_datasets_leave_no_descriptor_open(tmp_path):
    """A store reads through one descriptor per table file and closes them
    when it is collected: building, reading and dropping many datasets
    leaves the process's descriptor count where it was."""

    def open_descriptors():
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
    before = open_descriptors()
    for i in range(24):
        ds = build_oil_reservoir_dataset(
            spec, num_storage=2, functional=True, storage_dir=tmp_path / f"d{i}"
        )
        for name in (ds.left, ds.right):
            for desc in ds.metadata.table(name).all_chunks():
                ds.provider.fetch(desc)
        del ds
    assert open_descriptors() == before


def test_memory_store_missing_file():
    store = InMemoryChunkStore(0)
    with pytest.raises(FileNotFoundError):
        store.read(ChunkRef(storage_node=0, path="mem://nope", offset=0, size=1))


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def make_partitions(schema, sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [
        TablePartition(
            columns={a.name: rng.random(n).astype(np.float32) for a in schema}
        )
        for n in sizes
    ]


class TestDatasetWriter:
    def test_write_and_extract_back(self, tmp_path):
        ex = build_extractor(DESCRIPTOR)
        stores = [LocalChunkStore(tmp_path, i) for i in range(3)]
        writer = DatasetWriter(stores)
        parts = make_partitions(ex.schema, [10, 20, 30, 40])
        written = writer.write_table(5, ex, parts)

        assert len(written.chunks) == 4
        assert written.num_records == 100
        assert written.nbytes == 100 * ex.schema.record_size
        # block-cyclic placement
        assert [c.ref.storage_node for c in written.chunks] == [0, 1, 2, 0]
        # chunk ids in emission order
        assert [c.chunk_id for c in written.chunks] == [0, 1, 2, 3]

        # read back chunk 2 through its extractor list
        registry = ExtractorRegistry([ex])
        desc = written.chunks[2]
        raw = stores[desc.ref.storage_node].read(desc.ref)
        sub = registry.resolve_first(desc.extractors).extract(raw, desc.id, desc.bbox)
        assert sub.num_records == 30
        np.testing.assert_array_equal(sub.column("x"), parts[2].columns["x"])

    def test_descriptor_bbox_covers_data(self, tmp_path):
        ex = build_extractor(DESCRIPTOR)
        writer = DatasetWriter([LocalChunkStore(tmp_path, 0)])
        (part,) = make_partitions(ex.schema, [25], seed=3)
        written = writer.write_table(1, ex, [part])
        box = written.chunks[0].bbox
        assert box.interval("x").lo == pytest.approx(float(part.columns["x"].min()))
        assert box.interval("x").hi == pytest.approx(float(part.columns["x"].max()))

    def test_stores_must_be_indexed_by_node_id(self, tmp_path):
        with pytest.raises(ValueError):
            DatasetWriter([LocalChunkStore(tmp_path, 1)])

    def test_placement_wider_than_stores_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatasetWriter([LocalChunkStore(tmp_path, 0)], placement=BlockCyclicPlacement(2))

    def test_empty_store_list_rejected(self):
        with pytest.raises(ValueError):
            DatasetWriter([])

    def test_extra_extractors_listed(self, tmp_path):
        ex = build_extractor(DESCRIPTOR)
        writer = DatasetWriter([LocalChunkStore(tmp_path, 0)])
        written = writer.write_table(
            1, ex, make_partitions(ex.schema, [5]), extra_extractors=("fallback",)
        )
        assert written.chunks[0].extractors == ("t1", "fallback")


class TestExtractorRegistry:
    def test_resolve_first_falls_through(self):
        ex = build_extractor(DESCRIPTOR)
        reg = ExtractorRegistry([ex])
        assert reg.resolve_first(["not_here", "t1"]) is ex

    def test_resolve_none_registered(self):
        reg = ExtractorRegistry()
        with pytest.raises(KeyError):
            reg.resolve_first(["a", "b"])

    def test_duplicate_name_rejected(self):
        ex = build_extractor(DESCRIPTOR)
        ex2 = build_extractor(DESCRIPTOR)
        reg = ExtractorRegistry([ex])
        with pytest.raises(ValueError):
            reg.register(ex2)
        # same object is fine (idempotent)
        reg.register(ex)
