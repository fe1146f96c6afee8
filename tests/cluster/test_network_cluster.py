"""Tests for network fabrics and cluster assembly."""

import pytest

from repro.cluster import (
    ClusterSim,
    ClusterTopology,
    MachineSpec,
    NetworkFabric,
    NFSFabric,
    PAPER_MACHINE,
    SimEngine,
    nfs_cluster,
    paper_cluster,
)


class TestMachineSpec:
    def test_paper_defaults(self):
        m = PAPER_MACHINE
        assert m.disk_read_bw == 25e6
        assert m.disk_write_bw == 20e6
        assert m.link_bw == 12.5e6
        assert m.memory_bytes == 512 * 2**20
        assert m.cpu_factor == 1.0

    def test_cpu_factor_scales_costs(self):
        m = PAPER_MACHINE.with_cpu_factor(2.0)
        assert m.build_cost == PAPER_MACHINE.build_cost / 2
        assert m.lookup_cost == PAPER_MACHINE.lookup_cost / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(disk_read_bw=0)
        with pytest.raises(ValueError):
            MachineSpec(cpu_factor=-1)
        with pytest.raises(ValueError):
            MachineSpec(alpha_build=-1e-9)
        with pytest.raises(ValueError):
            MachineSpec(memory_bytes=0)
        with pytest.raises(ValueError):
            MachineSpec(memory_bytes=float("nan"))

    @pytest.mark.parametrize("field", [
        "disk_read_bw", "disk_write_bw", "link_bw", "cpu_factor",
        "alpha_build", "alpha_lookup", "disk_latency", "net_latency",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nan_and_infinity_rejected(self, field, value):
        """NaN passes every ``<=`` test, and an infinite rate, factor or
        cost makes simulated times zero or infinite: both are refused by
        name."""
        with pytest.raises(ValueError, match=field):
            MachineSpec(**{field: value})


class TestNetworkFabric:
    def test_point_to_point_time(self):
        eng = SimEngine()
        fab = NetworkFabric(eng, num_nodes=4, link_bandwidth=10.0, latency=0.0)

        def proc():
            yield fab.transfer(0, 2, 100)
            return eng.now

        assert eng.drive(eng.process(proc())) == pytest.approx(10.0)

    def test_loopback_is_free(self):
        eng = SimEngine()
        fab = NetworkFabric(eng, num_nodes=2, link_bandwidth=10.0, latency=0.0)

        def proc():
            yield fab.transfer(1, 1, 10_000)
            return eng.now

        assert eng.drive(eng.process(proc())) == 0.0

    def test_disjoint_pairs_transfer_in_parallel(self):
        """A switch lets disjoint node pairs run concurrently."""
        eng = SimEngine()
        fab = NetworkFabric(eng, num_nodes=4, link_bandwidth=10.0, latency=0.0)

        def proc(src, dst):
            yield fab.transfer(src, dst, 100)

        eng.process(proc(0, 1))
        eng.process(proc(2, 3))
        assert eng.run() == pytest.approx(10.0)  # not 20

    def test_shared_receiver_serialises(self):
        eng = SimEngine()
        fab = NetworkFabric(eng, num_nodes=3, link_bandwidth=10.0, latency=0.0)

        def proc(src):
            yield fab.transfer(src, 2, 100)

        eng.process(proc(0))
        eng.process(proc(1))
        assert eng.run() == pytest.approx(20.0)  # receiver NIC is the bottleneck

    def test_unknown_node(self):
        eng = SimEngine()
        fab = NetworkFabric(eng, num_nodes=2, link_bandwidth=10.0, latency=0.0)
        with pytest.raises(KeyError):
            fab.nic(5)


class TestNFSFabric:
    def test_all_traffic_hits_server_nic(self):
        eng = SimEngine()
        fab = NFSFabric(eng, num_nodes=3, link_bandwidth=10.0, server=0)

        def proc(client):
            yield fab.transfer(0, client, 100)

        eng.process(proc(1))
        eng.process(proc(2))
        # server NIC serialises both sends
        assert eng.run() == pytest.approx(20.0)

    def test_bad_server_id(self):
        eng = SimEngine()
        with pytest.raises(ValueError):
            NFSFabric(eng, num_nodes=2, link_bandwidth=10.0, server=5)


class TestClusterSim:
    def test_paper_cluster_shape(self):
        sim = paper_cluster(5, 5)
        assert sim.num_storage == 5 and sim.num_compute == 5
        assert sim.compute_nodes[0].has_local_disk
        # fabric ids don't collide
        fids = [s.fabric_id for s in sim.storage_nodes] + [
            c.fabric_id for c in sim.compute_nodes
        ]
        assert len(set(fids)) == 10

    def test_nfs_cluster_shape(self):
        sim = nfs_cluster(4)
        assert sim.num_storage == 1
        assert not sim.compute_nodes[0].has_local_disk
        with pytest.raises(RuntimeError):
            sim.compute_nodes[0].scratch

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(0, 1)
        with pytest.raises(ValueError):
            ClusterTopology(2, 1, shared_nfs=True)

    def test_read_and_send_streams_at_slowest_device_rate(self):
        spec = MachineSpec(disk_read_bw=100.0, link_bw=10.0)
        sim = ClusterSim(ClusterTopology(1, 1), spec=spec)

        def proc():
            yield sim.read_and_send(0, 0, 100)
            return sim.engine.now

        # pipelined: disk (1s alone) overlaps the 10s network leg
        assert sim.engine.drive(sim.engine.process(proc())) == pytest.approx(10.0)

    def test_read_and_send_disk_bound_when_disk_slower(self):
        spec = MachineSpec(disk_read_bw=5.0, link_bw=10.0)
        sim = ClusterSim(ClusterTopology(1, 1), spec=spec)

        def proc():
            yield sim.read_and_send(0, 0, 100)
            return sim.engine.now

        assert sim.engine.drive(sim.engine.process(proc())) == pytest.approx(20.0)

    def test_read_and_send_aggregate_bandwidth_emerges(self):
        """With n_s=n_j=2 and disk >> net, total transfer time for B bytes
        per joiner approaches B/link (parallel links)."""
        spec = MachineSpec(disk_read_bw=1e9, link_bw=10.0)
        sim = ClusterSim(ClusterTopology(2, 2), spec=spec)

        def joiner(j):
            # j pulls from its own storage node: disjoint pairs
            yield sim.read_and_send(j, j, 100)

        for j in range(2):
            sim.engine.process(joiner(j))
        assert sim.engine.run() == pytest.approx(10.0, rel=1e-3)

    def test_scratch_write_read_local(self):
        spec = MachineSpec(disk_read_bw=25.0, disk_write_bw=20.0, link_bw=1e9)
        sim = ClusterSim(ClusterTopology(1, 1), spec=spec)

        def proc():
            yield sim.ingest_write(0, 100)  # 5s at write rate, NIC held too
            yield sim.scratch_read(0, 100)  # 4s at read rate
            return sim.engine.now

        assert sim.engine.drive(sim.engine.process(proc())) == pytest.approx(9.0)

    def test_scratch_routes_via_server_on_nfs(self):
        spec = MachineSpec(disk_read_bw=25.0, disk_write_bw=20.0, link_bw=10.0)
        sim = ClusterSim(ClusterTopology(1, 1, shared_nfs=True), spec=spec)

        def proc():
            # write: net (10s) + server disk write (5s)
            yield sim.ingest_write(0, 100)
            return sim.engine.now

        assert sim.engine.drive(sim.engine.process(proc())) == pytest.approx(15.0)

    def test_nfs_scratch_contention_across_joiners(self):
        """Two diskless joiners writing buckets thrash the shared server."""
        spec = MachineSpec(disk_read_bw=25.0, disk_write_bw=20.0, link_bw=10.0)
        sim = ClusterSim(ClusterTopology(1, 2, shared_nfs=True), spec=spec)

        def proc(j):
            yield sim.ingest_write(j, 100)

        for j in range(2):
            sim.engine.process(proc(j))
        end = sim.engine.run()
        # Server NIC serialises the two 10s transfers; disk writes interleave.
        assert end >= 20.0
