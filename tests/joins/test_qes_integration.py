"""End-to-end tests of the distributed QES implementations.

Every functional execution is checked for exact result equality against the
single-node sort-merge oracle; simulated timings are checked for basic
physical sanity (monotonicity in data size, benefit from parallelism).
"""

from dataclasses import replace

import pytest

from repro.cluster import MachineSpec, paper_cluster, nfs_cluster
from repro.datamodel.subtable import concat_subtables
from repro.joins import GraceHashQES, IndexedJoinQES, reference_join
from repro.joins.scheduler import schedule_random
from repro.services.cache import CachingService, QueryCacheView, make_policy
from repro.workloads import GridSpec, build_oil_reservoir_dataset

#: Small machine spec so tests exercise contention without big datasets.
TEST_SPEC = MachineSpec(
    disk_read_bw=25e6,
    disk_write_bw=20e6,
    link_bw=12.5e6,
    memory_bytes=512 * 2**20,
)


def run_both(spec: GridSpec, n_s=2, n_j=2, functional=True, machine=TEST_SPEC, **kw):
    ds = build_oil_reservoir_dataset(spec, num_storage=n_s, functional=functional)
    ij_cluster = paper_cluster(n_s, n_j, spec=machine)
    ij = IndexedJoinQES(
        ij_cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider, **kw
    ).run()
    gh_cluster = paper_cluster(n_s, n_j, spec=machine)
    gh = GraceHashQES(
        gh_cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
    ).run()
    return ds, ij, gh


def assert_matches_oracle(ds, report):
    oracle = reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)
    got = concat_subtables(
        [sub for per in report.results for sub in per], id=oracle.id
    )
    assert got.equals_unordered(oracle)
    assert got.num_records == ds.spec.T  # selectivity 1 on full coordinates


class TestFunctionalCorrectness:
    def test_ij_and_gh_match_oracle_2d(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds, ij, gh = run_both(spec)
        assert_matches_oracle(ds, ij)
        assert_matches_oracle(ds, gh)

    def test_mixed_partition_shapes_3d(self):
        spec = GridSpec(g=(8, 8, 8), p=(2, 4, 8), q=(8, 4, 2))
        ds, ij, gh = run_both(spec)
        assert_matches_oracle(ds, ij)
        assert_matches_oracle(ds, gh)

    def test_uneven_storage_and_joiners(self):
        spec = GridSpec(g=(16, 8), p=(4, 4), q=(2, 2))
        ds, ij, gh = run_both(spec, n_s=3, n_j=2)
        assert_matches_oracle(ds, ij)
        assert_matches_oracle(ds, gh)

    def test_single_node_each_side(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        ds, ij, gh = run_both(spec, n_s=1, n_j=1)
        assert_matches_oracle(ds, ij)
        assert_matches_oracle(ds, gh)

    def test_gh_multiple_buckets_still_correct(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=2)
        # 4.5 KiB of bucket pair per joiner in 700 bytes of memory
        cluster = paper_cluster(2, 2, spec=replace(TEST_SPEC, memory_bytes=700))
        qes = GraceHashQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
        )
        gh = qes.run()
        assert_matches_oracle(ds, gh)
        assert qes.num_buckets == 7
        assert gh.extras["num_buckets"] == 7

    def test_ij_with_random_schedule_still_correct(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=2)
        cluster = paper_cluster(2, 2, spec=TEST_SPEC)
        from repro.joins import build_join_index

        idx = build_join_index(
            ds.metadata.table("T1").all_chunks(),
            ds.metadata.table("T2").all_chunks(),
            ds.join_attrs,
        )
        ij = IndexedJoinQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            index=idx, schedule=schedule_random(idx, 2, seed=3),
        ).run()
        assert_matches_oracle(ds, ij)

    def test_ij_single_node_matches_reference_join(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=1)
        cluster = paper_cluster(1, 1, spec=TEST_SPEC)
        ij = IndexedJoinQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
        ).run()
        assert_matches_oracle(ds, ij)

    def test_nfs_topology_functional(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=1)
        cluster = nfs_cluster(2, spec=TEST_SPEC)
        gh = GraceHashQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
        ).run()
        assert_matches_oracle(ds, gh)


class TestModelOnlyRuns:
    def test_stub_run_produces_no_results_but_full_accounting(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds, ij, gh = run_both(spec, functional=False)
        for report in (ij, gh):
            assert report.results is None
            assert not report.functional
            assert report.total_time > 0
            assert report.bytes_from_storage > 0
        # both algorithms pull the full dataset from storage exactly once
        total = ds.metadata.table("T1").nbytes + ds.metadata.table("T2").nbytes
        assert ij.bytes_from_storage == total
        assert gh.bytes_from_storage == total

    def test_stub_and_functional_times_agree(self):
        """The simulated time must not depend on whether data is real."""
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        _, ij_f, gh_f = run_both(spec, functional=True)
        _, ij_s, gh_s = run_both(spec, functional=False)
        assert ij_f.total_time == pytest.approx(ij_s.total_time, rel=1e-9)
        # GH functional routes by real hashes vs stub even split: batch
        # sizes differ slightly, times stay close
        assert gh_f.total_time == pytest.approx(gh_s.total_time, rel=0.05)


class TestAccountingInvariants:
    def test_ij_operation_counts_match_model_quantities(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
        ds, ij, _ = run_both(spec)
        # one build per left record (each left sub-table loaded once),
        # one probe per right record per edge touching it
        assert ij.kernel.builds == spec.T
        assert ij.kernel.probes == spec.n_e * spec.c_S
        assert ij.pairs_joined == spec.n_e
        # cache never re-fetches under the paper's memory assumption
        assert ij.bytes_from_storage == (
            ds.metadata.table("T1").nbytes + ds.metadata.table("T2").nbytes
        )

    @pytest.mark.parametrize("capacity", [512 * 2**20, 4096], ids=["roomy", "tight"])
    @pytest.mark.parametrize("pipeline", [False, True], ids=["sync", "pipe"])
    def test_each_side_of_a_pair_is_looked_up_once(self, pipeline, capacity):
        """A cold then a warm query through shared caches: each query's
        view counts one hit or one miss per sub-table of each pair —
        untraced, where a hit never enters the fetch generator, and
        traced, where every lookup is its ``fetch`` span's — and the two
        read the same counts."""
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
        ds = build_oil_reservoir_dataset(spec, num_storage=2)
        counts = {}
        for traced in (False, True):
            shared = [
                CachingService(capacity, make_policy("lru"))
                for _ in range(2)
            ]
            counts[traced] = []
            for qid in range(2):
                views = [QueryCacheView(cache, qid=qid) for cache in shared]
                report = IndexedJoinQES(
                    paper_cluster(2, 2, spec=TEST_SPEC, telemetry=traced),
                    ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
                    caches=views, pipeline=pipeline,
                ).run()
                hits = sum(view.stats.hits for view in views)
                misses = sum(view.stats.misses for view in views)
                assert hits + misses == 2 * report.pairs_joined
                counts[traced].append((hits, misses))
        assert counts[False] == counts[True]
        (_, cold_misses), (warm_hits, warm_misses) = counts[False]
        assert cold_misses > 0 and warm_hits > 0
        assert (warm_misses == 0) == (capacity > 4096)

    def test_gh_io_volume_is_twice_dataset(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds, _, gh = run_both(spec)
        total = ds.metadata.table("T1").nbytes + ds.metadata.table("T2").nbytes
        assert gh.bytes_scratch_written == total
        assert gh.bytes_scratch_read == total
        assert gh.kernel.builds == spec.T
        assert gh.kernel.probes == spec.T

    def test_time_scales_down_with_more_joiners(self):
        spec = GridSpec(g=(32, 32), p=(8, 8), q=(4, 4))
        _, ij1, gh1 = run_both(spec, n_s=2, n_j=1, functional=False)
        _, ij4, gh4 = run_both(spec, n_s=2, n_j=4, functional=False)
        assert ij4.total_time < ij1.total_time
        assert gh4.total_time < gh1.total_time

    def test_time_grows_with_record_size(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds_small = build_oil_reservoir_dataset(spec, 2, functional=False)
        ds_wide = build_oil_reservoir_dataset(
            spec, 2, functional=False, extra_attributes=17
        )
        times = {}
        for tag, ds in (("small", ds_small), ("wide", ds_wide)):
            cluster = paper_cluster(2, 2, spec=TEST_SPEC)
            times[tag] = GraceHashQES(
                cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
            ).run().total_time
        assert times["wide"] > times["small"]

    def test_phase_breakdown_sums_are_positive(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        _, ij, gh = run_both(spec)
        agg_ij = ij.aggregate_phases()
        assert agg_ij.transfer > 0 and agg_ij.cpu > 0
        assert agg_ij.scratch_write == 0 and agg_ij.scratch_read == 0  # IJ: no scratch
        agg_gh = gh.aggregate_phases()
        assert agg_gh.transfer > 0 and agg_gh.cpu > 0
        assert agg_gh.scratch_write > 0 and agg_gh.scratch_read > 0

    def test_summary_renders(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        _, ij, gh = run_both(spec)
        assert "indexed-join" in ij.summary()
        assert "grace-hash" in gh.summary()
        assert "cache" in ij.summary()
