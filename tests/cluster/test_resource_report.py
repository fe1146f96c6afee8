"""Per-request latency is charged on disk reads and on network transfers."""

import pytest

from repro.cluster import ClusterSim, ClusterTopology, MachineSpec


class TestMachineSpecLatency:
    def test_latency_charged_per_request(self):
        spec = MachineSpec(disk_read_bw=1e6, disk_latency=0.01)
        sim = ClusterSim(ClusterTopology(1, 1), spec=spec)

        def proc():
            for _ in range(5):
                yield sim.storage_nodes[0].disk.reserve_at_rate(0, sim.storage_nodes[0].disk.bandwidth)  # zero bytes: pure seeks

        sim.engine.drive(sim.engine.process(proc()))
        assert sim.engine.now == pytest.approx(0.05)

    def test_net_latency_on_transfers(self):
        spec = MachineSpec(net_latency=0.002)
        sim = ClusterSim(ClusterTopology(1, 1), spec=spec)

        def proc():
            yield sim.fabric.transfer(0, 1, 0)

        sim.engine.drive(sim.engine.process(proc()))
        assert sim.engine.now == pytest.approx(0.002)
