"""Tests for the pipelined (prefetching) Indexed Join execution mode.

The load-bearing property: pipelining changes *when* bytes move, never
*which* bytes move or what the join produces.  Every test here compares a
pipelined run against the synchronous baseline on the same dataset.
"""

from functools import lru_cache

import pytest

from repro.analysis.sanitizer import RunSanitizer
from repro.cluster import MachineSpec, paper_cluster
from repro.datamodel.subtable import concat_subtables
from repro.faults import FaultPlan
from repro.faults.errors import UnrecoverableFault
from repro.joins import IndexedJoinQES, reference_join
from repro.joins.scheduler import schedule_random
from repro.services.cache import CachingService
from repro.workloads import GridSpec, build_oil_reservoir_dataset

#: Transfer-bound machine: slow link relative to CPU, so the synchronous
#: mode leaves real wire time exposed for the pipeline to hide.
TRANSFER_BOUND = MachineSpec(
    disk_read_bw=25e6,
    disk_write_bw=20e6,
    link_bw=12.5e6,
    memory_bytes=512 * 2**20,
)

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))


def run_ij(ds, pipeline, n_s=2, n_j=2, machine=TRANSFER_BOUND, **kw):
    cluster = paper_cluster(n_s, n_j, spec=machine)
    return IndexedJoinQES(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
        pipeline=pipeline, **kw
    ).run()


class StagingFreeCache(CachingService):
    """A default-sized cache refusing every prefetch: the no-prefetch-budget
    regime.  A small cache cannot stand in for it, because "no staging
    budget ⇒ the synchronous clock" holds only while storage contention is
    low.  On ``p<q`` (32×32 grid, p 2×2, q 4×4, 2 storage nodes, 3
    joiners) ``CachingService(4·48 − 1)`` caches, whose quarter is below
    every sub-table, hold no right sub-table at all: with the same hits,
    misses and evictions and zero prefetches, the pipelined run took
    3.70 ms against 3.49 ms synchronous, its extra event hops reordering
    same-instant storage requests."""

    def prefetch_begin(self, key, nbytes):
        return False


def assert_same_execution(sync, pipe):
    """Identical observable behaviour; only the clock may differ."""
    assert pipe.bytes_from_storage == sync.bytes_from_storage
    assert pipe.pairs_joined == sync.pairs_joined
    assert pipe.kernel.builds == sync.kernel.builds
    assert pipe.kernel.probes == sync.kernel.probes
    for a, b in zip(sync.cache_stats, pipe.cache_stats):
        assert (a.hits, a.misses, a.evictions, a.bytes_inserted) == \
            (b.hits, b.misses, b.evictions, b.bytes_inserted)


class TestEquivalence:
    def test_identical_output_and_bytes(self):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        sync = run_ij(ds, pipeline=False)
        pipe = run_ij(ds, pipeline=True)
        assert_same_execution(sync, pipe)
        oracle = reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)
        got = concat_subtables(
            [sub for per in pipe.results for sub in per], id=oracle.id
        )
        assert got.equals_unordered(oracle)

    def test_faster_on_transfer_bound_config(self):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        sync = run_ij(ds, pipeline=False)
        pipe = run_ij(ds, pipeline=True)
        assert pipe.total_time < sync.total_time

    def test_equivalent_under_random_schedule_with_evictions(self):
        """A cache small enough to thrash plus a schedule with no locality:
        the prefetcher's lookahead decisions get invalidated by evictions
        and the fallback path runs — behaviour must still match exactly."""
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)

        def run(pipeline):
            cluster = paper_cluster(2, 2, spec=TRANSFER_BOUND)
            qes = IndexedJoinQES(
                cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
                pipeline=pipeline, cache_capacity=4096,
            )
            qes.schedule = schedule_random(qes.index, 2, seed=3)
            return qes.run()

        sync, pipe = run(False), run(True)
        assert sum(s.evictions for s in sync.cache_stats) > 0
        assert_same_execution(sync, pipe)

    def test_equivalent_with_belady_policy(self):
        """Belady's cursor advances per cache reference; the pipelined
        consume path must generate the same reference sequence."""
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        sync = run_ij(ds, pipeline=False, cache_policy="belady", cache_capacity=4096)
        pipe = run_ij(ds, pipeline=True, cache_policy="belady", cache_capacity=4096)
        assert_same_execution(sync, pipe)

    def test_zero_budget_degrades_to_synchronous_time(self):
        """With no staging budget every prefetch is skipped and each
        sub-table pays its transfer synchronously in the consume path —
        same clock as the baseline, not just same bytes."""
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        # a staging budget, a quarter of the capacity, below every sub-table
        size = ds.metadata.table("T1").all_chunks()[0].size  # all one size on SPEC
        sync, pipe = (
            run_ij(ds, pipeline, caches=[CachingService(4 * size - 1) for _ in range(2)])
            for pipeline in (False, True)
        )
        assert_same_execution(sync, pipe)
        assert sum(stats.prefetches for stats in pipe.cache_stats) == 0
        assert pipe.total_time == pytest.approx(sync.total_time)
        assert pipe.overlap_ratio == 0.0


class TestOverlapAccounting:
    def test_sync_run_reports_zero_overlap(self):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        sync = run_ij(ds, pipeline=False)
        assert sync.overlap_ratio == 0.0
        agg = sync.aggregate_phases()
        assert agg.stall == pytest.approx(agg.transfer)

    def test_pipelined_run_reports_overlap_and_stalls(self):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        pipe = run_ij(ds, pipeline=True)
        assert 0.0 < pipe.overlap_ratio <= 1.0
        assert pipe.stall_time < pipe.aggregate_phases().transfer
        assert pipe.extras["pipeline"] == 1.0
        assert "pipelining:" in pipe.summary()

    def test_prefetch_stats_counted(self):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        pipe = run_ij(ds, pipeline=True)
        assert sum(s.prefetches for s in pipe.cache_stats) > 0
        sync = run_ij(ds, pipeline=False)
        assert sum(s.prefetches for s in sync.cache_stats) == 0


class TestWarmPipelined:
    def test_warm_caches_skip_prefetching(self):
        """A second run on warm caches hits everywhere: nothing to
        prefetch, no storage traffic, in either mode."""
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
        cluster = paper_cluster(2, 2, spec=TRANSFER_BOUND)
        first = IndexedJoinQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            pipeline=True,
        )
        first.run()
        warm_cluster = paper_cluster(2, 2, spec=TRANSFER_BOUND)
        warm = IndexedJoinQES(
            warm_cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            pipeline=True, caches=first.caches,
        ).run()
        assert warm.bytes_from_storage == 0
        assert sum(s.misses for s in warm.cache_stats) == 0
        assert sum(s.prefetches for s in warm.cache_stats) == 0


# -- one loop, every shape ---------------------------------------------------
#
# The suite above only ever ran p = q.  With the right table cut finer than
# the left (p > q) consecutive pairs share their *left* sub-table, which is
# the one shape where the prefetcher used to fetch a sub-table the consumer
# was in the middle of building — moving its bytes twice and stranding the
# second copy in the staging area.

#: name -> (grid spec, storage nodes, compute nodes)
SHAPES = {
    "p<q": (GridSpec(g=(32, 32), p=(2, 2), q=(4, 4)), 2, 3),
    "p=q": (SPEC, 2, 2),
    "p>q": (GridSpec(g=(32, 32), p=(4, 4), q=(2, 2)), 2, 3),
    "p>q-3d": (GridSpec(g=(16, 16, 16), p=(8, 8, 8), q=(4, 4, 4)), 3, 2),
}
REGIMES = ("default", "thrashing", "no-prefetch-budget")
FAULT_PLAN = "seed=5,transient=0.2,storage_crash=0.0004@0"


@lru_cache(maxsize=None)
def shape_dataset(shape, replication=1):
    spec, n_s, _ = SHAPES[shape]
    return build_oil_reservoir_dataset(
        spec, num_storage=n_s, functional=True, replication=replication
    )


def regime_kwargs(shape, ds, regime):
    """One QES's options for ``regime``: fresh caches on every call."""
    if regime == "thrashing":
        # room for four pairs (a left entry is charged twice, for its hash
        # table): evicts constantly, yet leaves the pipeline room to work
        left = ds.metadata.table("T1").all_chunks()[0].size
        right = ds.metadata.table("T2").all_chunks()[0].size
        return {"cache_capacity": 4 * (2 * left + right)}
    if regime == "no-prefetch-budget":
        n_j = SHAPES[shape][2]
        return {"caches": [StagingFreeCache(TRANSFER_BOUND.memory_bytes) for _ in range(n_j)]}
    return {}


def shape_qes(shape, ds, pipeline, faults=None, **kw):
    _, n_s, n_j = SHAPES[shape]
    cluster = paper_cluster(n_s, n_j, spec=TRANSFER_BOUND, faults=faults)
    return IndexedJoinQES(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
        pipeline=pipeline, sanitizer=RunSanitizer(label=f"{shape} pipe={pipeline}"),
        **kw
    )


def assert_joins_like_reference(ds, report):
    oracle = reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)
    got = concat_subtables(
        [sub for per in report.results for sub in per], id=oracle.id
    )
    assert got.equals_unordered(oracle)


def assert_quiesced(qes):
    for cache in qes.caches:
        assert cache.prefetch_bytes == 0
        assert cache.pinned_bytes == 0


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_pipelined_equals_synchronous_on_every_shape(shape, regime):
    """Fault-free, every observable but the clock matches, the clock is no
    worse, nothing is left staged, and the sanitizer (whose ``after_run``
    is part of ``run()``) raises nothing."""
    ds = shape_dataset(shape)
    sync_qes = shape_qes(shape, ds, pipeline=False, **regime_kwargs(shape, ds, regime))
    pipe_qes = shape_qes(shape, ds, pipeline=True, **regime_kwargs(shape, ds, regime))
    sync, pipe = sync_qes.run(), pipe_qes.run()
    if regime == "thrashing":
        assert sum(s.evictions for s in sync.cache_stats) > 0
    assert_same_execution(sync, pipe)
    assert_joins_like_reference(ds, pipe)
    assert_quiesced(pipe_qes)
    assert pipe.total_time <= sync.total_time * (1 + 1e-12)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_pipelined_recovers_on_every_shape(shape, regime):
    """Under transient faults and a storage crash (replication 2) the two
    modes draw different faults, so bytes may differ — but a pipelined run
    that completes is still correct, clean at quiesce and sanitizer-clean;
    the only other acceptable end is a structured UnrecoverableFault."""
    ds = shape_dataset(shape, replication=2)
    qes = shape_qes(
        shape, ds, pipeline=True, faults=FaultPlan.parse(FAULT_PLAN),
        **regime_kwargs(shape, ds, regime)
    )
    try:
        report = qes.run()
    except UnrecoverableFault:
        return
    assert report.recovery.any_recovery
    assert_joins_like_reference(ds, report)
    assert_quiesced(qes)
