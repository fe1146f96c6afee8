"""Tests for k-replica chunk placement and replica-aware reads."""

import numpy as np
import pytest

from repro.datamodel import ChunkDescriptor, ChunkRef, SubTableId
from repro.datamodel.bounding_box import BoundingBox
from repro.storage import BlockCyclicPlacement
from repro.workloads import GridSpec, build_oil_reservoir_dataset
from repro.workloads.generator import make_grid_chunk_descriptors

SPEC = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))


class TestChainedDeclustering:
    def test_primary_first_then_neighbours(self):
        p = BlockCyclicPlacement(4)
        assert list(p.replicas_for(0, 8, 1)) == [0]
        assert list(p.replicas_for(0, 8, 3)) == [0, 1, 2]
        # primary wraps: chunk 3 lives on node 3, replica on node 0
        assert list(p.replicas_for(3, 8, 2)) == [3, 0]

    def test_replica_load_spreads_over_neighbours(self):
        # chained declustering: when node 0 dies, its chunks' replicas all
        # sit on node 1 — but node 0 also *hosts* replicas of node 3's
        # chunks, so failover load shifts around the chain, not onto one
        # doubled-up mirror node
        p = BlockCyclicPlacement(3)
        replica_of = {
            ordinal: p.replicas_for(ordinal, 6, 2)[1] for ordinal in range(6)
        }
        assert set(replica_of.values()) == {0, 1, 2}

    def test_replication_factor_validation(self):
        p = BlockCyclicPlacement(3)
        with pytest.raises(ValueError):
            p.replicas_for(0, 6, 0)
        with pytest.raises(ValueError):
            p.replicas_for(0, 6, 4)  # a node never holds two copies


class TestDescriptorReplicas:
    def _ref(self, node):
        return ChunkRef(storage_node=node, path=f"n{node}", offset=0, size=64)

    def _desc(self, replicas):
        return ChunkDescriptor(
            id=SubTableId(1, 0),
            ref=self._ref(0),
            attributes=("x",),
            extractors=("synthetic",),
            bbox=BoundingBox({"x": (0.0, 3.0)}),
            num_records=4,
            replicas=replicas,
        )

    def test_all_refs_failover_order(self):
        desc = self._desc((self._ref(1), self._ref(2)))
        assert [r.storage_node for r in desc.all_refs] == [0, 1, 2]

    def test_ref_on_selects_replica(self):
        desc = self._desc((self._ref(2),))
        assert desc.ref_on(2).storage_node == 2
        assert desc.ref_on(0) is desc.ref
        with pytest.raises(KeyError):
            desc.ref_on(1)

    def test_replica_nodes_must_be_distinct(self):
        with pytest.raises(ValueError):
            self._desc((self._ref(0),))  # duplicates the primary's node


class TestGeneratedDescriptors:
    def test_replicas_on_failover_nodes(self):
        descs = make_grid_chunk_descriptors(
            1, (8, 8), (4, 4), record_size=8, num_storage=3, replication=2
        )
        for desc in descs:
            assert len(desc.replicas) == 1
            primary = desc.ref.storage_node
            assert desc.replicas[0].storage_node == (primary + 1) % 3
            assert desc.replicas[0].size == desc.ref.size

    def test_default_is_unreplicated(self):
        descs = make_grid_chunk_descriptors(
            1, (8, 8), (4, 4), record_size=8, num_storage=3
        )
        assert all(not d.replicas for d in descs)


class TestDatasetReplication:
    def test_metadata_lists_replica_nodes(self):
        ds = build_oil_reservoir_dataset(
            SPEC, num_storage=3, functional=False, replication=2
        )
        for table in (1, 2):
            for desc in ds.metadata.table(table).chunks.values():
                nodes = [r.storage_node for r in ds.metadata.chunk(desc.id).all_refs]
                assert len(nodes) == 2
                assert nodes[1] == (nodes[0] + 1) % 3

    def test_replica_fetch_is_byte_identical(self):
        # functional build writes real bytes to every replica store; a
        # fetch redirected to the replica node must decode the same rows
        ds = build_oil_reservoir_dataset(
            SPEC, num_storage=3, functional=True, replication=2
        )
        for desc in list(ds.metadata.table(1).chunks.values())[:4]:
            primary = ds.provider.fetch(desc)
            replica = ds.provider.fetch(desc, node=desc.replicas[0].storage_node)
            assert primary.id == replica.id
            for name in primary.schema.names:
                np.testing.assert_array_equal(
                    primary.column(name), replica.column(name)
                )

    def test_replication_exceeding_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_oil_reservoir_dataset(
                SPEC, num_storage=2, functional=False, replication=3
            )
