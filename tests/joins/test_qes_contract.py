"""The QES execution contract, once, for every execution.

A QES object is one execution (DESIGN.md §3): ``begin()`` starts it and
returns the execution itself, ``process`` is the driver to wait on,
``finish()`` assembles the report once the driver is done, ``abort()``
kills the whole process tree and leaves nothing behind.  The query
server relies on every clause; these tests exercise them with no server
in the way — Indexed Join synchronous and pipelined, Grace Hash and the
range scan (streaming, and through a Caching Service per compute node),
model-only and functional.
"""

import pytest

from repro.analysis.sanitizer import full_digest
from repro.cluster import MachineSpec, paper_cluster
from repro.datamodel.bounding_box import BoundingBox
from repro.joins import GraceHashQES, IndexedJoinQES, ScanQES
from repro.joins import grace_hash, indexed_join
from repro.server.resilience import QueryAborted
from repro.services.cache import CachingService, make_policy
from repro.workloads import GridSpec, build_oil_reservoir_dataset

#: 192-byte sub-tables on a slow fabric, so an abort lands mid-transfer
SPEC = GridSpec(g=(32, 32), p=(4, 4), q=(8, 8))
SLOW = MachineSpec(disk_read_bw=1e5, link_bw=5e4)
#: keeps 36 of T1's 64 chunks and cuts through the records of 20 of them
BOX = BoundingBox({"x": (3.0, 21.0), "y": (9.0, 30.0)})


@pytest.fixture(params=["ij-sync", "ij-pipe", "gh", "scan", "scan-cached"])
def mode(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["model", "functional"])
def functional(request):
    return request.param


@pytest.fixture
def make_qes(mode, functional):
    """Factory of identical fresh executions, each on its own cluster."""
    ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=functional)

    def make(telemetry=False):
        cluster = paper_cluster(2, 3, spec=SLOW, telemetry=telemetry)
        if mode.startswith("scan"):
            caches = None
            if mode == "scan-cached":
                caches = [CachingService(SLOW.memory_bytes, make_policy("lru")) for _ in range(3)]
            return ScanQES(cluster, ds.metadata, "T1", BOX, ds.provider, compute=1,
                           caches=caches)
        args = (cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider)
        if mode == "gh":
            return GraceHashQES(*args)
        return IndexedJoinQES(*args, pipeline=mode == "ij-pipe")

    return make


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls to the join kernel through either QES module's global."""
    calls = []
    real = indexed_join.vectorized_hash_join

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(indexed_join, "vectorized_hash_join", counting)
    monkeypatch.setattr(grace_hash, "vectorized_hash_join", counting)
    return calls


def test_run_is_begin_drive_finish(make_qes):
    qes = make_qes()
    run = qes.begin()
    qes.cluster.engine.drive(run.process)
    report = run.finish()
    assert full_digest(report) == full_digest(make_qes().run())
    if isinstance(qes, IndexedJoinQES) and report.results is not None:
        # a node's results are its one kernel call's output, never cut
        assert all(len(per) <= 1 for per in report.results)
        assert any(report.results)


def test_finish_before_the_driver_completes_raises(make_qes):
    run = make_qes().begin()
    with pytest.raises(RuntimeError, match="before the execution's driver"):
        run.finish()


def test_finish_twice_is_one_report_and_one_fill(
    make_qes, functional, kernel_calls, mode
):
    qes = make_qes()
    run = qes.begin()
    qes.cluster.engine.drive(run.process)
    report = run.finish()
    joined = len(kernel_calls)
    assert (joined > 0) == (functional and not mode.startswith("scan"))  # a scan joins nothing
    assert run.finish() is report
    assert len(kernel_calls) == joined
    assert report.result_tuples == make_qes().run().result_tuples


def test_second_begin_raises(make_qes):
    qes = make_qes()
    qes.begin()
    with pytest.raises(RuntimeError, match="one execution"):
        qes.begin()
    # the first execution is untouched by the refused second one
    qes.cluster.engine.drive(qes.process)
    assert full_digest(qes.finish()) == full_digest(make_qes().run())


@pytest.mark.parametrize("fraction", [0.1, 0.4, 0.8])
def test_abort_leaves_nothing_behind(make_qes, mode, functional, fraction):
    makespan = make_qes().run().total_time
    qes = make_qes(telemetry=True)
    engine = qes.cluster.engine
    run = qes.begin()
    cause = QueryAborted(0, "test")

    def killer():
        yield engine.timeout(fraction * makespan)
        assert not run.process.triggered  # the abort lands mid-flight
        run.abort(cause)

    engine.process(killer(), name="killer")
    engine.run()
    assert run.process.triggered and not run.process.ok
    # a scan's driver is the scan: it is the one execution with no workers
    assert bool(run.children) == (not mode.startswith("scan"))
    assert all(proc.triggered for proc in run.children)
    assert engine.pending_processes() == []
    for cache in getattr(qes, "caches", None) or ():
        assert cache.pinned_bytes == 0
        # staged by a prefetcher, never taken: leaked before the fix
        assert cache.prefetch_bytes == 0
    assert qes.cluster.telemetry.recorder.open_spans() == []
    # the whole-run spans nothing will finish() end with the abort's cause:
    # the ``query`` span always, Grace Hash's ``partition`` span while the
    # partition phase runs (0.1, 0.4) and its ``bucket-write``s in flight
    # (functional at 0.4: the model-only run has none on the wire then)
    errors = {
        (span.name, span.attrs["error"])
        for span in qes.cluster.telemetry.recorder.spans
        if "error" in span.attrs
    }
    assert ("query", "QueryAborted") in errors
    if mode.startswith("ij"):
        # a joiner dies mid-pair: the pair's span ends with the interrupt
        assert any(
            name.startswith("pair") and error == "Interrupt" for name, error in errors
        )
    if mode == "gh":
        assert (("partition", "QueryAborted") in errors) == (fraction < 0.8)
        if functional and fraction == 0.4:
            assert ("bucket-write", "QueryAborted") in errors
