"""Tests for cluster resource reporting across topologies."""

import pytest

from repro.cluster import ClusterSim, ClusterTopology, MachineSpec


class TestResourceReport:
    def test_switched_report_covers_all_devices(self):
        sim = ClusterSim(ClusterTopology(2, 3))
        sim.engine.run_process(self._one_of_everything(sim))
        report = sim.resource_report()
        assert {"s0.disk", "s1.disk"} <= set(report)
        assert {"c0.cpu", "c1.cpu", "c2.cpu"} <= set(report)
        assert {"c0.scratch", "c1.scratch", "c2.scratch"} <= set(report)
        assert {f"nic{i}" for i in range(5)} <= set(report)

    def test_nfs_report_has_no_scratch(self):
        sim = ClusterSim(ClusterTopology(1, 2, shared_nfs=True))

        def proc():
            yield sim.scratch_write(0, 100)

        sim.engine.run_process(proc())
        report = sim.resource_report()
        assert not any(k.endswith(".scratch") for k in report)
        assert report["s0.disk"]["bytes"] == 100

    def test_utilisation_bounded(self):
        sim = ClusterSim(ClusterTopology(1, 1))
        sim.engine.run_process(self._one_of_everything(sim))
        for counters in sim.resource_report().values():
            assert 0.0 <= counters["utilisation"] <= 1.0

    @staticmethod
    def _one_of_everything(sim):
        def proc():
            yield sim.read_and_send(0, 0, 1000)
            yield sim.scratch_write(0, 500)
            yield sim.scratch_read(0, 500)
            yield sim.joiner(0).cpu.reserve_time(0.01)

        return proc()


class TestMachineSpecLatency:
    def test_latency_charged_per_request(self):
        spec = MachineSpec(disk_read_bw=1e6, disk_latency=0.01)
        sim = ClusterSim(ClusterTopology(1, 1), spec=spec)

        def proc():
            for _ in range(5):
                yield sim.storage(0).read(0)  # zero bytes: pure seeks

        sim.engine.run_process(proc())
        assert sim.engine.now == pytest.approx(0.05)

    def test_net_latency_on_transfers(self):
        spec = MachineSpec(net_latency=0.002)
        sim = ClusterSim(ClusterTopology(1, 1), spec=spec)

        def proc():
            yield sim.send(0, 1, 0)

        sim.engine.run_process(proc())
        assert sim.engine.now == pytest.approx(0.002)
