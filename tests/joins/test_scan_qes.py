"""The range-scan QES against whole-table oracles, and its recovery.

:class:`~repro.joins.ScanQES` shares its lifecycle with the joins
(``test_qes_contract.py`` drives it through begin/abort/finish); this
file checks what only a scan does — the functional count against
``bbox_mask`` over the whole table and against a brute-force count over
drawn boxes (chunks inside the box are counted by their bounds), the
byte ledger against the chunks the range part keeps, hits on a second
scan through the same caches — and that the recovery a scan performs is visible in its report: the
server's private scan loop kept no ledger, so it never was.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import RunSanitizer
from repro.cluster import PAPER_MACHINE, MachineSpec, paper_cluster
from repro.cluster.events import Interrupt
from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.subtable import bbox_mask, concat_subtables
from repro.faults import FaultPlan, NodeCrash, UnrecoverableFault
from repro.faults.errors import ComputeNodeDown
from repro.joins import ScanQES
from repro.server.queries import draw_box
from repro.server.resilience import QueryAborted
from repro.services.cache import CachingService, make_policy
from repro.workloads import GridSpec, build_oil_reservoir_dataset

GRIDS = {
    "p<q": GridSpec(g=(32, 32), p=(4, 4), q=(8, 8)),
    "p=q": GridSpec(g=(16, 16, 16), p=(4, 4, 4), q=(4, 4, 4)),
    "p>q": GridSpec(g=(32, 32), p=(8, 8), q=(4, 4)),
}
#: seeds for :func:`draw_box`, then the two boxes no draw produces
BOXES = [3, 11, 2006, "outside", "unconstrained"]
#: slow enough that a crash or an abort lands strictly inside the scan
SLOW = MachineSpec(disk_read_bw=2e5, link_bw=1e5)


@pytest.fixture(params=sorted(GRIDS))
def spec(request):
    return GRIDS[request.param]


def the_box(ds, which) -> BoundingBox:
    if which == "outside":
        return BoundingBox({name: (-9.0, -2.0) for name in ds.join_attrs})
    if which == "unconstrained":
        return BoundingBox({})
    return draw_box(ds, which)


def scan(ds, table, box, **kw):
    """A fresh ScanQES on its own 2+3 cluster; ``spec``/``faults``/
    ``telemetry`` configure the cluster, the rest the scan."""
    cluster_kw = {k: kw.pop(k) for k in ("spec", "faults", "telemetry") if k in kw}
    cluster = paper_cluster(2, 3, **cluster_kw)
    return ScanQES(cluster, ds.metadata, table, box, ds.provider, **kw)


def fresh_caches(spec=PAPER_MACHINE):
    """One empty LRU cache per compute node of :func:`scan`'s cluster: a
    scan without caches streams, and these tests watch what a cache sees."""
    return [CachingService(spec.memory_bytes, make_policy("lru")) for _ in range(3)]


@pytest.mark.parametrize("which", BOXES, ids=str)
@pytest.mark.parametrize("table", ["T1", "T2"])
def test_count_bytes_and_warm_rescan(spec, table, which):
    ds = build_oil_reservoir_dataset(spec, num_storage=2, functional=True)
    box = the_box(ds, which)
    catalog = ds.metadata.table(table)
    kept = catalog.find_chunks(box)
    whole = concat_subtables([ds.provider.fetch(c) for c in catalog.all_chunks()])
    expected = int(bbox_mask(whole, box).sum())
    assert (expected == 0) == (not kept) == (which == "outside")
    if which == "unconstrained":
        assert len(kept) == len(catalog.chunks)

    cold = scan(ds, table, box, compute=2, caches=fresh_caches())
    report = cold.run()
    assert report.extras["selected_records"] == expected
    assert report.bytes_from_storage == sum(c.size for c in kept)
    assert report.pairs_joined == 0 and report.results == [[], [], []]
    # only the target node's cache was touched
    assert [s.misses for s in report.cache_stats] == [0, 0, len(kept)]
    assert sum(s.hits for s in report.cache_stats) == 0

    warm = scan(ds, table, box, compute=2, caches=cold.caches).run()
    assert warm.bytes_from_storage == 0 and warm.total_time == 0.0
    assert [s.hits for s in warm.cache_stats] == [0, 0, len(kept)]
    assert warm.extras["selected_records"] == expected
    assert all(cache.pinned_bytes == 0 for cache in cold.caches)


#: the property's grids: the three above, and z-slabs one cell thick, whose
#: chunk bounds are degenerate on ``z``
COUNT_GRIDS = {**GRIDS, "slabs": GridSpec(g=(8, 8, 4), p=(4, 8, 1), q=(8, 4, 2))}
#: example budgets are multiples of the loaded Hypothesis profile's
BUDGET = settings.default.max_examples


@functools.lru_cache(maxsize=None)
def counted_dataset(grid):
    return build_oil_reservoir_dataset(COUNT_GRIDS[grid], num_storage=2, functional=True)


@functools.lru_cache(maxsize=None)
def raw_columns(grid, table):
    """Every column of ``table``, all chunks end to end."""
    ds = counted_dataset(grid)
    parts = [ds.provider.fetch(c) for c in ds.metadata.table(table).all_chunks()]
    return {name: np.concatenate([p.column(name) for p in parts])
            for name in parts[0].schema.names}


@st.composite
def counted_scans(draw):
    """A grid, a table and a box over it: each coordinate unbounded or
    between two chunk-bound edges, which may coincide (a degenerate
    interval) or sit half a cell off; now and then the table's value
    attribute bounded too, and the empty box whenever nothing is drawn."""
    grid = draw(st.sampled_from(sorted(COUNT_GRIDS)))
    table = draw(st.sampled_from(["T1", "T2"]))
    catalog = counted_dataset(grid).metadata.table(table)
    intervals = {}
    for name in catalog.schema.coordinate_names:
        if not draw(st.booleans()):
            continue
        edges = sorted({v for c in catalog.all_chunks()
                        for v in (c.bbox.interval(name).lo, c.bbox.interval(name).hi)})
        nudge = st.sampled_from([0.0, 0.0, 0.0, -0.5, 0.5])
        lo = draw(st.sampled_from(edges)) + draw(nudge)
        hi = draw(st.sampled_from(edges)) + draw(nudge)
        intervals[name] = (min(lo, hi), max(lo, hi))
    if draw(st.booleans()):
        value = next(a.name for a in catalog.schema if not a.coordinate)
        lo, hi = sorted(draw(st.floats(-0.25, 1.25)) for _ in range(2))
        intervals[value] = (lo, hi)
    return grid, table, BoundingBox(intervals)


@settings(max_examples=BUDGET, deadline=None)
@given(counted_scans())
def test_counts_by_bounds_equal_a_brute_force_count(drawn):
    """Chunks inside the box count whole, the rest through their masks:
    the sum is the number of raw records inside the box."""
    grid, table, box = drawn
    columns = raw_columns(grid, table)
    inside = np.ones(len(next(iter(columns.values()))), dtype=bool)
    for name in box:
        iv = box.interval(name)
        inside &= (columns[name] >= iv.lo) & (columns[name] <= iv.hi)
    report = scan(counted_dataset(grid), table, box, compute=1).run()
    assert report.extras["selected_records"] == int(inside.sum())


def test_model_only_scan_moves_the_same_bytes_and_counts_nothing(spec):
    ds = build_oil_reservoir_dataset(spec, num_storage=2, functional=False)
    box = draw_box(ds, 3)
    report = scan(ds, "T2", box).run()
    kept = ds.metadata.table("T2").find_chunks(box)
    assert report.bytes_from_storage == sum(c.size for c in kept)
    assert "selected_records" not in report.extras


def test_planned_chunks_are_taken_as_given():
    ds = build_oil_reservoir_dataset(GRIDS["p<q"], num_storage=2, functional=True)
    some = ds.metadata.table("T1").all_chunks()[:5]
    report = scan(ds, "T1", BoundingBox({}), chunks=some).run()
    assert report.bytes_from_storage == sum(c.size for c in some)


@pytest.mark.parametrize("which", [3, "unconstrained"], ids=str)
def test_a_standalone_scan_streams_what_a_fresh_cache_would_miss(which):
    """No caches: the same transfers at the same instants as through fresh
    ones (a scan reads each chunk once), and a sink is handed every chunk,
    whole, in chunk order."""
    ds = build_oil_reservoir_dataset(GRIDS["p<q"], num_storage=2, functional=True)
    box = the_box(ds, which)
    cached = scan(ds, "T1", box, compute=1, caches=fresh_caches(), telemetry=True).run()
    handed = []
    streamed = scan(ds, "T1", box, compute=1, telemetry=True, sink=handed.append).run()
    assert streamed.cache_stats == [] and streamed.recovery == cached.recovery
    assert (streamed.total_time, streamed.bytes_from_storage) == (
        cached.total_time, cached.bytes_from_storage
    )
    spans = [[(s.name, s.start, s.end) for s in r.telemetry.recorder.spans]
             for r in (cached, streamed)]
    assert spans[0] == spans[1]
    kept = ds.metadata.table("T1").find_chunks(box)
    assert [sub.id for sub in handed] == [c.id for c in kept]
    assert [sub.num_records for sub in handed] == [c.num_records for c in kept]
    assert sum(int(bbox_mask(sub, box).sum()) for sub in handed) == (
        cached.extras["selected_records"]
    )
    assert "selected_records" not in streamed.extras and streamed.results == [[], [], []]


def test_a_projected_scan_refuses_shared_caches():
    """A projected entry stored under its chunk's id would be read back as
    the whole chunk by every other execution on the cache."""
    ds = build_oil_reservoir_dataset(GRIDS["p<q"], num_storage=2, functional=True)
    with pytest.raises(ValueError, match="columns= with caches="):
        scan(ds, "T1", BoundingBox({}), columns=["oilp"], caches=fresh_caches())
    handed = []
    scan(ds, "T1", BoundingBox({}), columns=["oilp"], sink=handed.append).run()
    assert {sub.schema.names for sub in handed} == {("oilp",)}


def test_a_target_outside_the_cluster_is_refused():
    ds = build_oil_reservoir_dataset(GRIDS["p<q"], num_storage=2, functional=False)
    with pytest.raises(ValueError, match="outside a cluster of 3"):
        scan(ds, "T1", BoundingBox({}), compute=3)


# -- the scan and its compute node -------------------------------------------


def makespan(ds):
    return scan(ds, "T1", BoundingBox({}), spec=SLOW).run().total_time


def test_compute_crash_mid_scan_fails_the_driver_with_the_node_death():
    """What the server's supervisor maps to a retryable failure."""
    ds = build_oil_reservoir_dataset(GRIDS["p<q"], num_storage=2, functional=True)
    plan = FaultPlan(
        seed=7, crashes=(NodeCrash("compute", at=0.4 * makespan(ds), node=1),)
    )
    qes = scan(ds, "T1", BoundingBox({}), spec=SLOW, faults=plan, compute=1,
               caches=fresh_caches(SLOW), contain_faults=True)
    qes.begin()
    qes.cluster.engine.run()
    assert qes.process.triggered and not qes.process.ok
    death = qes.process.value
    assert isinstance(death, Interrupt) and isinstance(death.cause, ComputeNodeDown)
    assert death.cause.node == 1
    assert 0 < qes.report.bytes_from_storage < ds.metadata.table("T1").nbytes
    assert all(cache.pinned_bytes == 0 for cache in qes.caches)
    assert qes.cluster.engine.pending_processes() == []


def test_scan_streams_to_the_next_survivor_of_a_dead_target():
    ds = build_oil_reservoir_dataset(GRIDS["p<q"], num_storage=2, functional=True)
    plan = FaultPlan(seed=7, crashes=(NodeCrash("compute", at=0.0, node=2),))
    cluster = paper_cluster(2, 3, faults=plan)

    def late_scan():
        yield cluster.engine.timeout(1.0)  # the node is long dead by now
        qes = ScanQES(cluster, ds.metadata, "T1", BoundingBox({}), ds.provider,
                      compute=2, caches=fresh_caches()).begin()
        yield qes.process
        return qes.finish()

    report = cluster.engine.run_process(late_scan())
    assert [s.misses for s in report.cache_stats] == [64, 0, 0]  # 2 → 0
    assert report.extras["selected_records"] == 1024


def test_no_surviving_compute_node_is_an_unrecoverable_fault():
    ds = build_oil_reservoir_dataset(GRIDS["p<q"], num_storage=2, functional=False)
    plan = FaultPlan(seed=7, crashes=tuple(
        NodeCrash("compute", at=0.0, node=j) for j in range(3)
    ))
    cluster = paper_cluster(2, 3, faults=plan)

    def late_scan():
        yield cluster.engine.timeout(1.0)
        yield ScanQES(cluster, ds.metadata, "T1", BoundingBox({}), ds.provider,
                      compute=1).begin().process

    with pytest.raises(UnrecoverableFault, match="no surviving compute node"):
        cluster.engine.run_process(late_scan())


# -- a scan's recovery is in its report --------------------------------------


def faulted_scan(ds, **kw):
    """Half of all transfers fail transiently and storage node 0 dies a
    third of the way in; every chunk has a replica on node 1."""
    plan = FaultPlan.parse(
        f"seed=5,transient=0.5,max_attempts=16,retry_base=0.001,"
        f"storage_crash={makespan(ds) / 3}@0"
    )
    return scan(ds, "T1", BoundingBox({}), spec=SLOW, faults=plan, telemetry=True,
                **kw)


def test_a_scans_recovery_is_counted():
    ds = build_oil_reservoir_dataset(
        GRIDS["p<q"], num_storage=2, functional=True, replication=2
    )
    # the sanitizer holds the report to the wire: bytes_from_storage must
    # equal the bytes of *successful* transfers, and no span may stay open
    qes = faulted_scan(ds, caches=fresh_caches(SLOW), sanitizer=RunSanitizer())
    report = qes.run()
    rec = report.recovery
    assert rec.retries > 0 and rec.failovers > 0
    assert rec.wasted_bytes == rec.retries * 192 and rec.wasted_seconds > 0
    # every chunk fetched exactly once, however many attempts it took
    assert report.bytes_from_storage == ds.metadata.table("T1").nbytes
    assert report.extras["selected_records"] == 1024
    pb = report.per_joiner[0]
    assert pb.stall > pb.transfer > 0  # failed attempts and backoff stall only
    tel = report.telemetry
    assert tel.metrics.counter("op.transfer.bytes").value == report.bytes_from_storage
    transfers = [s for s in tel.recorder.spans if s.name == "transfer"]
    failed = [s for s in transfers if "error" in s.attrs]
    # one span per attempt, not one over the whole loop
    assert len(transfers) == 64 + rec.retries + rec.failovers
    assert len(failed) == rec.retries + rec.failovers
    assert max(s.attrs["attempt"] for s in transfers) > 1


def test_an_aborted_faulted_scan_leaves_no_open_span():
    ds = build_oil_reservoir_dataset(
        GRIDS["p<q"], num_storage=2, functional=True, replication=2
    )
    qes = faulted_scan(ds, caches=fresh_caches(SLOW), contain_faults=True)
    engine = qes.cluster.engine
    qes.begin()

    def killer():
        yield engine.timeout(0.6 * makespan(ds))
        assert not qes.process.triggered
        qes.abort(QueryAborted(0, "test"))

    engine.process(killer(), name="killer")
    engine.run()
    assert not qes.process.ok
    assert qes.report.recovery.retries > 0
    assert qes.cluster.telemetry.recorder.open_spans() == []
    assert all(cache.pinned_bytes == 0 for cache in qes.caches)
    assert engine.pending_processes() == []
