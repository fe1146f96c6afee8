"""Tests for the Basic Data Source Service and sub-table providers."""

import numpy as np
import pytest

from repro.datamodel import SubTable, SubTableId, SubTableStub
from repro.metadata import MetaDataService
from repro.services import BasicDataSourceService, FunctionalProvider, StubProvider
from repro.storage import DatasetWriter, ExtractorRegistry, build_extractor
from repro.storage.chunkstore import InMemoryChunkStore
from repro.storage.writer import TablePartition

DESCRIPTOR = """
layout bds_t {
    order: column_major;
    field x    float32 coordinate;
    field wp   float32;
}
"""


@pytest.fixture
def setup():
    ex = build_extractor(DESCRIPTOR)
    registry = ExtractorRegistry([ex])
    stores = [InMemoryChunkStore(i) for i in range(2)]
    writer = DatasetWriter(stores)
    rng = np.random.default_rng(0)
    parts = [
        TablePartition(
            columns={
                "x": np.arange(i * 8, (i + 1) * 8, dtype=np.float32),
                "wp": rng.random(8).astype(np.float32),
            }
        )
        for i in range(4)
    ]
    written = writer.write_table(7, ex, parts)
    svc = MetaDataService()
    svc.register_written_table("T", written)
    bds = {i: BasicDataSourceService(i, stores[i], registry) for i in range(2)}
    return svc, bds, parts


class TestBDS:
    def test_produce_subtable_roundtrip(self, setup):
        svc, bds, parts = setup
        desc = svc.chunk(SubTableId(7, 2))
        sub = bds[desc.ref.storage_node].produce_subtable(desc)
        assert isinstance(sub, SubTable)
        assert sub.id == SubTableId(7, 2)
        np.testing.assert_array_equal(sub.column("x"), parts[2].columns["x"])
        # metadata bbox is attached, not recomputed
        assert sub.bbox == desc.bbox

    def test_only_local_chunks_served(self, setup):
        svc, bds, _ = setup
        desc = svc.chunk(SubTableId(7, 0))  # lives on node 0
        with pytest.raises(ValueError):
            bds[1].produce_subtable(desc)

    def test_store_node_mismatch_rejected(self):
        reg = ExtractorRegistry()
        with pytest.raises(ValueError):
            BasicDataSourceService(0, InMemoryChunkStore(1), reg)


class TestProviders:
    def test_functional_provider(self, setup):
        svc, bds, parts = setup
        provider = FunctionalProvider(bds)
        assert provider.functional
        sub = provider.fetch(svc.chunk(SubTableId(7, 1)))
        assert isinstance(sub, SubTable)
        assert sub.num_records == 8

    def test_functional_provider_from_iterable(self, setup):
        svc, bds, _ = setup
        provider = FunctionalProvider(bds.values())
        assert provider.fetch(svc.chunk(SubTableId(7, 0))).num_records == 8

    def test_functional_provider_missing_node(self, setup):
        svc, bds, _ = setup
        provider = FunctionalProvider({0: bds[0]})
        desc = svc.chunk(SubTableId(7, 1))  # node 1
        with pytest.raises(KeyError):
            provider.fetch(desc)

    def test_empty_provider_rejected(self):
        with pytest.raises(ValueError):
            FunctionalProvider({})

    def test_stub_provider(self, setup):
        svc, _, _ = setup
        provider = StubProvider()
        assert not provider.functional
        desc = svc.chunk(SubTableId(7, 3))
        stub = provider.fetch(desc)
        assert isinstance(stub, SubTableStub)
        assert stub.num_records == 8
        assert stub.num_records * stub.record_size == desc.size
        assert stub.bbox == desc.bbox
