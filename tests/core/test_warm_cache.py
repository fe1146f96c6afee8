"""Tests for cross-query cache reuse and compressed-dataset execution."""

import pytest

from repro.cluster import MachineSpec, paper_cluster
from repro.core import DerivedDataSource, JoinView, QueryPlanningService
from repro.core.engine import assemble_result, view_qes
from repro.datamodel import BoundingBox
from repro.joins import IndexedJoinQES
from repro.workloads import GridSpec, build_oil_reservoir_dataset

MACHINE = MachineSpec()
SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))


def indexed_join(ds, view, caches=None):
    """Run ``view`` under the Indexed Join, warmed by ``caches`` when given:
    the caches it ran with, its report and its record-level answer."""
    plan = QueryPlanningService(ds.metadata, 2, 2, machine=MACHINE).plan(view)
    qes = view_qes(
        "indexed-join", paper_cluster(2, 2, spec=MACHINE), ds.metadata, ds.provider,
        view, plan, caches=caches,
    )
    report = qes.run()
    return qes.caches, report, assemble_result(report, view, ds.metadata)


class TestWarmCaches:
    """An Indexed Join handed the caches of an earlier one starts warm —
    the cross-query role the paper assigns the Caching Service."""

    @pytest.fixture()
    def ds(self):
        return build_oil_reservoir_dataset(SPEC, num_storage=2)

    def test_second_execution_is_nearly_free(self, ds):
        view = JoinView("V1", "T1", "T2", on=ds.join_attrs)
        caches, cold, cold_table = indexed_join(ds, view)
        _, warm, warm_table = indexed_join(ds, view, caches)
        assert warm_table.equals_unordered(cold_table)
        # everything was cached: no storage traffic at all
        assert warm.bytes_from_storage == 0
        assert warm.total_time < cold.total_time / 2

    def test_warm_run_reports_per_run_stats_not_cumulative(self, ds):
        """Regression: the report used to alias the caches' live
        :class:`CacheStats`, so a warm run showed the cold run's misses
        too.  Each report must carry only its own execution's deltas."""
        view = JoinView("V1", "T1", "T2", on=ds.join_attrs)
        caches, cold, _ = indexed_join(ds, view)
        _, warm, _ = indexed_join(ds, view, caches)
        cold_misses = sum(s.misses for s in cold.cache_stats)
        assert cold_misses > 0
        # every access in the warm run is a hit — and none of the cold
        # run's misses leak into its stats
        assert sum(s.misses for s in warm.cache_stats) == 0
        assert sum(s.hits for s in warm.cache_stats) == 2 * warm.pairs_joined
        # the cold report is itself immutable history: running again must
        # not have mutated it retroactively
        assert sum(s.misses for s in cold.cache_stats) == cold_misses

    def test_without_reuse_second_run_pays_full_price(self, ds):
        view = JoinView("V1", "T1", "T2", on=ds.join_attrs)
        _, first, _ = indexed_join(ds, view)
        _, second, _ = indexed_join(ds, view)
        assert second.bytes_from_storage == first.bytes_from_storage
        assert second.total_time == pytest.approx(first.total_time)

    def test_overlapping_view_benefits_partially(self, ds):
        """A narrower view over the same tables reuses the warm entries."""
        caches, _, _ = indexed_join(ds, JoinView("V1", "T1", "T2", on=ds.join_attrs))
        narrow = JoinView("V2", "T1", "T2", on=ds.join_attrs,
                          where=BoundingBox({"x": (0, 7)}))
        _, report, table = indexed_join(ds, narrow, caches)
        assert report.bytes_from_storage == 0  # all hits
        assert table.num_records == SPEC.T // 2

    def test_qes_cache_count_validated(self, ds):
        from repro.services import CachingService

        with pytest.raises(ValueError):
            IndexedJoinQES(
                paper_cluster(2, 2), ds.metadata, "T1", "T2", ds.join_attrs,
                ds.provider, caches=[CachingService(100)],
            )


#: big tiles (256 records) so delta-RLE savings dwarf the codec headers
SPEC_BIG = GridSpec(g=(32, 32), p=(16, 16), q=(16, 16))


class TestCompressedDataset:
    def test_compressed_build_shrinks_and_matches(self):
        raw = build_oil_reservoir_dataset(SPEC_BIG, num_storage=2, layout="row_major")
        comp = build_oil_reservoir_dataset(
            SPEC_BIG, num_storage=2, layout="compressed_column"
        )
        assert comp.metadata.table("T1").nbytes < raw.metadata.table("T1").nbytes
        # same records come back out
        from repro import reference_join

        a = reference_join(raw.metadata, raw.provider, "T1", "T2", raw.join_attrs)
        b = reference_join(comp.metadata, comp.provider, "T1", "T2", comp.join_attrs)
        assert a.equals_unordered(b)

    def test_compressed_execution_moves_fewer_bytes(self):
        raw = build_oil_reservoir_dataset(SPEC_BIG, num_storage=2)
        comp = build_oil_reservoir_dataset(
            SPEC_BIG, num_storage=2, layout="compressed_column"
        )
        results = {}
        for tag, ds in (("raw", raw), ("comp", comp)):
            dds = DerivedDataSource(
                JoinView("V1", "T1", "T2", on=ds.join_attrs),
                ds.metadata, ds.provider, num_storage=2, num_compute=2,
                machine=MACHINE,
            )
            results[tag] = dds.execute(algorithm="grace-hash")
        assert results["comp"].report.bytes_from_storage < \
            results["raw"].report.bytes_from_storage
        assert results["comp"].table.equals_unordered(results["raw"].table)

    def test_model_only_compressed_rejected(self):
        with pytest.raises(ValueError):
            build_oil_reservoir_dataset(
                SPEC, num_storage=1, functional=False, layout="compressed_column"
            )
