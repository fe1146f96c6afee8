"""Fault-recovery contract tests for both query execution strategies.

The contract under test (DESIGN.md §6): with replication >= 2, the loss of
any single storage node mid-run is *masked* — the join completes and its
output is identical to the fault-free run.  When no surviving replica
exists, the run terminates with a structured :class:`UnrecoverableFault`
naming the chunk and node — never a deadlock, never silent partial output.
Fault injection is seed-deterministic, so every faulty trace replays
byte-identically.

Timing recipe: the test machine is slowed way down (200 KB/s disks,
100 KB/s links) so the small test join takes whole simulated seconds,
leaving room to land a crash strictly inside the run (at 40% of the
measured fault-free makespan).
"""

import pytest

from repro.cluster import MachineSpec, paper_cluster
from repro.datamodel.subtable import concat_subtables
from repro.faults import FaultPlan, NodeCrash, UnrecoverableFault
from repro.joins import GraceHashQES, IndexedJoinQES, reference_join
from repro.workloads import GridSpec, build_oil_reservoir_dataset

#: Slow enough that the test join runs for seconds of simulated time.
SLOW = MachineSpec(
    disk_read_bw=2e5,
    disk_write_bw=2e5,
    link_bw=1e5,
    memory_bytes=512 * 2**20,
)
SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
N_S = N_J = 2


def build(replication=2):
    return build_oil_reservoir_dataset(
        SPEC, num_storage=N_S, functional=True, replication=replication
    )


def run(ds, cls, faults=None, **kw):
    cluster = paper_cluster(N_S, N_J, spec=SLOW, faults=faults)
    return cls(cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider, **kw).run()


def assert_matches_oracle(ds, report):
    oracle = reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)
    got = concat_subtables(
        [sub for per in report.results for sub in per], id=oracle.id
    )
    assert got.equals_unordered(oracle)


def storage_crash(ds, cls, node=0, frac=0.4, **kw):
    """A plan that kills storage ``node`` at ``frac`` of the fault-free run."""
    baseline = run(ds, cls, **kw)
    plan = FaultPlan(
        seed=7,
        crashes=(NodeCrash("storage", at=frac * baseline.total_time, node=node),),
    )
    return baseline, plan


class TestStorageCrashMasked:
    """Single storage-node loss with k=2 replication is fully masked."""

    def test_indexed_join_fails_over(self):
        ds = build()
        baseline, plan = storage_crash(ds, IndexedJoinQES)
        rep = run(ds, IndexedJoinQES, faults=plan)
        assert_matches_oracle(ds, rep)
        rec = rep.recovery
        assert rec.failovers > 0
        assert rec.wasted_seconds > 0
        assert rep.total_time >= baseline.total_time

    def test_indexed_join_pipelined_fails_over(self):
        ds = build()
        baseline, plan = storage_crash(ds, IndexedJoinQES, pipeline=True)
        rep = run(ds, IndexedJoinQES, faults=plan, pipeline=True)
        assert_matches_oracle(ds, rep)
        assert rep.recovery.failovers > 0

    def test_grace_hash_restarts_lost_chunks(self):
        ds = build()
        baseline, plan = storage_crash(ds, GraceHashQES)
        rep = run(ds, GraceHashQES, faults=plan)
        assert_matches_oracle(ds, rep)
        rec = rep.recovery
        assert rec.restarted_chunks > 0
        assert rec.wasted_bytes > 0
        assert rep.total_time >= baseline.total_time

    def test_ij_invalidates_cache_of_dead_node(self):
        ds = build()
        _, plan = storage_crash(ds, IndexedJoinQES)
        rep = run(ds, IndexedJoinQES, faults=plan)
        # entries staged from the dead node were dropped so later reuse
        # cannot resurrect bytes the node can no longer serve
        assert rep.recovery.cache_invalidations >= 0
        assert rep.recovery.failovers > 0


class TestTransientRetries:
    def test_ij_retries_mask_transients(self):
        ds = build(replication=1)  # retries alone must suffice
        plan = FaultPlan(seed=11, transfer_failure_rate=0.05, retry_base=0.01)
        rep = run(ds, IndexedJoinQES, faults=plan)
        assert_matches_oracle(ds, rep)
        assert rep.recovery.retries > 0

    def test_gh_retries_mask_transients(self):
        ds = build(replication=1)
        plan = FaultPlan(seed=11, transfer_failure_rate=0.05, retry_base=0.01)
        rep = run(ds, GraceHashQES, faults=plan)
        assert_matches_oracle(ds, rep)
        assert rep.recovery.retries > 0


class TestComputeCrash:
    def test_ij_reassigns_pairs_of_dead_joiner(self):
        ds = build()
        baseline = run(ds, IndexedJoinQES)
        plan = FaultPlan(
            seed=7,
            crashes=(
                NodeCrash("compute", at=0.4 * baseline.total_time, node=1),
            ),
        )
        rep = run(ds, IndexedJoinQES, faults=plan)
        assert_matches_oracle(ds, rep)
        assert rep.recovery.reassigned_pairs > 0

    def test_ij_pipelined_reassigns_pairs(self):
        ds = build()
        baseline = run(ds, IndexedJoinQES, pipeline=True)
        plan = FaultPlan(
            seed=7,
            crashes=(
                NodeCrash("compute", at=0.4 * baseline.total_time, node=1),
            ),
        )
        rep = run(ds, IndexedJoinQES, faults=plan, pipeline=True)
        assert_matches_oracle(ds, rep)
        assert rep.recovery.reassigned_pairs > 0

    def test_gh_cannot_mask_compute_loss(self):
        # GH partitions into joiner-local scratch; losing a joiner loses
        # bucket state that has no replica — must fail loudly, not hang
        ds = build()
        baseline = run(ds, GraceHashQES)
        plan = FaultPlan(
            seed=7,
            crashes=(
                NodeCrash("compute", at=0.4 * baseline.total_time, node=1),
            ),
        )
        with pytest.raises(UnrecoverableFault) as exc_info:
            run(ds, GraceHashQES, faults=plan)
        assert exc_info.value.node == 1


class TestUnrecoverable:
    def test_ij_no_replica_names_chunk_and_node(self):
        ds = build(replication=1)
        baseline = run(ds, IndexedJoinQES)
        plan = FaultPlan(
            seed=7,
            crashes=(
                NodeCrash("storage", at=0.4 * baseline.total_time, node=0),
            ),
        )
        with pytest.raises(UnrecoverableFault) as exc_info:
            run(ds, IndexedJoinQES, faults=plan)
        assert exc_info.value.chunk is not None
        assert exc_info.value.node == 0

    def test_gh_no_replica_names_chunk_and_node(self):
        ds = build(replication=1)
        baseline = run(ds, GraceHashQES)
        plan = FaultPlan(
            seed=7,
            crashes=(
                NodeCrash("storage", at=0.4 * baseline.total_time, node=0),
            ),
        )
        with pytest.raises(UnrecoverableFault) as exc_info:
            run(ds, GraceHashQES, faults=plan)
        assert exc_info.value.chunk is not None
        assert exc_info.value.node == 0


class TestDeterminism:
    """Same (plan, workload) pair → identical faulty trace, replayable."""

    @pytest.mark.parametrize("cls", [IndexedJoinQES, GraceHashQES])
    def test_crash_run_replays_identically(self, cls):
        ds = build()
        _, plan = storage_crash(ds, cls)
        a = run(ds, cls, faults=plan)
        b = run(ds, cls, faults=plan)
        assert a.total_time == b.total_time
        assert a.recovery == b.recovery
        assert a.bytes_from_storage == b.bytes_from_storage

    def test_transient_run_replays_identically(self):
        ds = build()
        plan = FaultPlan(seed=13, transfer_failure_rate=0.05, retry_base=0.01)
        a = run(ds, IndexedJoinQES, faults=plan)
        b = run(ds, IndexedJoinQES, faults=plan)
        assert a.total_time == b.total_time
        assert a.recovery == b.recovery


class TestZeroFaultIdentity:
    """A trivial FaultPlan must leave runs byte-identical to faults=None."""

    @pytest.mark.parametrize("cls", [IndexedJoinQES, GraceHashQES])
    def test_sync(self, cls):
        ds = build()
        base = run(ds, cls)
        faulty = run(ds, cls, faults=FaultPlan(seed=9))
        assert faulty.total_time == base.total_time
        assert faulty.bytes_from_storage == base.bytes_from_storage
        assert not faulty.recovery.any_recovery
        assert faulty.recovery == base.recovery

    def test_ij_pipelined(self):
        ds = build()
        base = run(ds, IndexedJoinQES, pipeline=True)
        faulty = run(ds, IndexedJoinQES, faults=FaultPlan(seed=9), pipeline=True)
        assert faulty.total_time == base.total_time
        assert faulty.bytes_from_storage == base.bytes_from_storage
        assert not faulty.recovery.any_recovery


class TestPinLifecycle:
    """Regression: pins acquired for an in-flight pair must be released on
    *every* exit path, including a joiner killed mid-pair by a compute
    crash.  Pre-scope code unpinned manually after the probe, so the
    interrupt leaked the pair's pins and the cache silently shrank —
    fatal once caches are shared across queries."""

    def _crashed_ij(self, pipeline=False):
        ds = build()
        baseline = run(ds, IndexedJoinQES, pipeline=pipeline)
        plan = FaultPlan(
            seed=7,
            crashes=(
                NodeCrash("compute", at=0.4 * baseline.total_time, node=1),
            ),
        )
        cluster = paper_cluster(N_S, N_J, spec=SLOW, faults=plan)
        qes = IndexedJoinQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            pipeline=pipeline,
        )
        return ds, qes, qes.run()

    def test_compute_crash_leaves_no_pinned_bytes(self):
        ds, qes, rep = self._crashed_ij()
        assert rep.recovery.reassigned_pairs > 0  # the crash really hit
        for j, cache in enumerate(qes.caches):
            assert cache.pinned_bytes == 0, f"joiner {j} leaked pins"
        assert_matches_oracle(ds, rep)

    def test_compute_crash_pipelined_leaves_no_pinned_bytes(self):
        ds, qes, rep = self._crashed_ij(pipeline=True)
        assert rep.recovery.reassigned_pairs > 0
        for cache in qes.caches:
            assert cache.pinned_bytes == 0

    def test_fault_free_run_leaves_no_pinned_bytes(self):
        ds = build()
        cluster = paper_cluster(N_S, N_J, spec=SLOW)
        qes = IndexedJoinQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
        )
        qes.run()
        for cache in qes.caches:
            assert cache.pinned_bytes == 0


class TestStagingLifecycle:
    """Regression: staging reservations taken by a prefetcher must be
    handed back on *every* exit path.  Pre-fix, ``_prefetch_pair``
    cancelled its reservation only for ``FaultError``; a joiner killed
    mid-transfer unwound through the yield with the budget still held,
    and ready-staged entries the dead joiner never consumed stayed
    parked until quiesce.  (Dropping either arm's ``prefetch_cancel`` is
    a cell of ``benchmarks/protocol_mutations.py``; this class is one of
    the gates that catch it.)"""

    def test_compute_crash_leaves_no_staged_bytes(self):
        ds = build()
        baseline = run(ds, IndexedJoinQES, pipeline=True)
        plan = FaultPlan(
            seed=7,
            crashes=(
                NodeCrash("compute", at=0.4 * baseline.total_time, node=1),
            ),
        )
        cluster = paper_cluster(N_S, N_J, spec=SLOW, faults=plan)
        qes = IndexedJoinQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            pipeline=True,
        )
        rep = qes.run()
        assert rep.recovery.reassigned_pairs > 0  # the crash really hit
        for j, cache in enumerate(qes.caches):
            assert cache.prefetch_bytes == 0, f"joiner {j} leaked staging"
        assert_matches_oracle(ds, rep)

    def test_fault_free_run_leaves_no_staged_bytes(self):
        ds = build()
        cluster = paper_cluster(N_S, N_J, spec=SLOW)
        qes = IndexedJoinQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            pipeline=True,
        )
        qes.run()
        for cache in qes.caches:
            assert cache.prefetch_bytes == 0
