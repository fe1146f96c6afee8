"""Tests for heterogeneous (per-node spec) clusters."""

import pytest

from repro.cluster import ClusterSim, ClusterTopology, MachineSpec
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.workloads import GridSpec, build_oil_reservoir_dataset

BASE = MachineSpec()
SLOW_DISK = MachineSpec(disk_read_bw=5e6, disk_write_bw=4e6)
SLOW_CPU = BASE.with_cpu_factor(0.25)


def run_ij(spec, n_s=2, n_j=2, **cluster_kw):
    ds = build_oil_reservoir_dataset(spec, num_storage=n_s, functional=False)
    cluster = ClusterSim(ClusterTopology(n_s, n_j), spec=BASE, **cluster_kw)
    return IndexedJoinQES(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
    ).run(), cluster


def run_gh(spec, n_s=2, n_j=2, **cluster_kw):
    ds = build_oil_reservoir_dataset(spec, num_storage=n_s, functional=False)
    cluster = ClusterSim(ClusterTopology(n_s, n_j), spec=BASE, **cluster_kw)
    return GraceHashQES(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
    ).run(), cluster


SPEC = GridSpec(g=(32, 32, 32), p=(8, 8, 8), q=(8, 8, 8))


class TestOverrides:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            ClusterSim(ClusterTopology(2, 2), storage_specs={5: SLOW_DISK})
        with pytest.raises(ValueError):
            ClusterSim(ClusterTopology(2, 2), compute_specs={-1: SLOW_CPU})

    def test_override_applied_to_named_node_only(self):
        sim = ClusterSim(
            ClusterTopology(2, 2),
            spec=BASE,
            storage_specs={0: SLOW_DISK},
            compute_specs={1: SLOW_CPU},
        )
        assert sim.storage_nodes[0].spec.disk_read_bw == 5e6
        assert sim.storage_nodes[1].spec.disk_read_bw == BASE.disk_read_bw
        assert sim.joiner(1).spec.cpu_factor == 0.25
        assert sim.joiner(0).spec.cpu_factor == 1.0

    def test_slow_storage_disk_slows_ij(self):
        fast, _ = run_ij(SPEC)
        # one storage disk slower than the link: its chunks pace the run
        slow, _ = run_ij(SPEC, storage_specs={0: SLOW_DISK})
        assert slow.total_time > fast.total_time

    def test_slow_joiner_cpu_slows_both_algorithms(self):
        ij_fast, _ = run_ij(SPEC)
        ij_slow, _ = run_ij(SPEC, compute_specs={0: SLOW_CPU})
        assert ij_slow.total_time > ij_fast.total_time
        gh_fast, _ = run_gh(SPEC)
        gh_slow, _ = run_gh(SPEC, compute_specs={0: SLOW_CPU})
        assert gh_slow.total_time > gh_fast.total_time

    def test_straggler_bounds_makespan(self):
        """A 4x-slower joiner CPU cannot slow the run more than ~4x the
        original CPU share (work is not rebalanced — static schedules)."""
        fast, _ = run_gh(SPEC)
        slow, _ = run_gh(SPEC, compute_specs={0: SLOW_CPU})
        fast_cpu = fast.per_joiner[0].cpu
        added = slow.total_time - fast.total_time
        assert added <= 3.2 * fast_cpu + 1e-9

    def test_gh_write_uses_node_spec(self):
        slow_writer = MachineSpec(disk_write_bw=1e6)
        gh_fast, _ = run_gh(SPEC)
        gh_slow, _ = run_gh(SPEC, compute_specs={0: slow_writer})
        assert gh_slow.total_time > gh_fast.total_time
        # the slow node's Write term dominates its breakdown
        assert gh_slow.per_joiner[0].scratch_write > gh_fast.per_joiner[0].scratch_write
