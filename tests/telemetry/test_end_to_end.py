"""End-to-end telemetry over real traced executions.

The contract under test: tracing is observation-only (a traced run is
byte-identical in query output to an untraced one), every span closes,
and the critical path reproduces the makespan exactly.
"""

import pytest

from repro.analysis.sanitizer import RunSanitizer, full_digest
from repro.cluster import paper_cluster
from repro.faults import FaultPlan
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.workloads import GridSpec, build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))


@pytest.fixture(scope="module")
def dataset():
    return build_oil_reservoir_dataset(SPEC, num_storage=2, functional=False)


def run(dataset, cls, traced, faults=None, sanitizer=None, **kw):
    cluster = paper_cluster(2, 2, faults=faults, telemetry=traced)
    return cls(
        cluster, dataset.metadata, "T1", "T2", dataset.join_attrs,
        dataset.provider, sanitizer=sanitizer, **kw,
    ).run()


def check_trace(report):
    """The per-run telemetry invariants every traced execution must hold."""
    tel = report.telemetry
    assert tel is not None
    assert tel.recorder.open_spans() == []
    cp = report.critical_path
    assert cp.total == report.total_time  # exact, not approx
    assert abs(cp.attributed - cp.total) <= 1e-9 * cp.total
    return tel


ALGORITHMS = [
    pytest.param(IndexedJoinQES, {}, id="ij-sync"),
    pytest.param(IndexedJoinQES, {"pipeline": True}, id="ij-pipelined"),
    pytest.param(GraceHashQES, {}, id="gh"),
]


class TestTracedRuns:
    @pytest.mark.parametrize("cls,kw", ALGORITHMS)
    def test_tracing_is_observation_only(self, dataset, cls, kw):
        plain = run(dataset, cls, traced=False, **kw)
        traced = run(dataset, cls, traced=True, **kw)
        assert full_digest(traced) == full_digest(plain)
        assert traced.total_time == plain.total_time
        assert plain.telemetry is None and plain.critical_path is None
        check_trace(traced)

    @pytest.mark.parametrize("cls,kw", ALGORITHMS)
    def test_critical_path_terms_match_algorithm(self, dataset, cls, kw):
        report = run(dataset, cls, traced=True, **kw)
        terms = report.critical_path.by_term()
        assert all(v > 0 for v in terms.values())
        if cls is GraceHashQES:
            # partition + join: scratch traffic must appear on the path
            assert "Write" in terms or "Read" in terms
        else:
            # the indexed join never touches scratch disks
            assert set(terms) <= {"Transfer", "Cpu", "Wait", "Other"}

    def test_gh_flow_edges_link_transfer_to_bucket_write(self, dataset):
        report = run(dataset, GraceHashQES, traced=True)
        rec = report.telemetry.recorder
        writes = [s for s in rec.spans if s.category == "scratch-write"]
        assert writes, "partition phase recorded no bucket writes"
        for w in writes:
            assert w.follows_from, "bucket write lost its causal edge"
            src = rec.get(w.follows_from[0])
            assert src.category == "transfer"
            # causality: the write follows the transfer that shipped it
            assert w.start >= src.end

    def test_resource_spans_cover_every_device_class(self, dataset):
        report = run(dataset, GraceHashQES, traced=True)
        tel = report.telemetry
        resources = {
            s.name for s in tel.recorder.spans if s.category == "resource"
        }
        nodes = {tel.node_of(r) for r in resources}
        assert any(n.startswith("storage") for n in nodes)
        assert any(n.startswith("compute") for n in nodes)

    def test_metrics_registered_by_components(self, dataset):
        report = run(dataset, IndexedJoinQES, traced=True)
        names = report.telemetry.metrics.names()
        assert any(n.startswith("cache.") for n in names)
        assert any(n.startswith("queue.") for n in names)
        assert "resource.request_bytes" in names


class TestFaultedAndSanitized:
    def test_faulted_traced_run_stays_consistent(self, dataset):
        plan = FaultPlan(seed=3, transfer_failure_rate=0.05, retry_base=0.01)
        for cls in (IndexedJoinQES, GraceHashQES):
            plain = run(dataset, cls, traced=False, faults=plan)
            traced = run(dataset, cls, traced=True, faults=plan)
            assert traced.recovery.retries > 0
            assert full_digest(traced) == full_digest(plain)
            tel = check_trace(traced)
            # the retried transfers are visible as error-annotated spans
            failed = [
                s for s in tel.recorder.spans
                if s.category == "transfer" and "error" in s.attrs
            ]
            assert len(failed) == traced.recovery.retries

    def test_sanitizer_accepts_traced_runs(self, dataset):
        for cls in (IndexedJoinQES, GraceHashQES):
            report = run(
                dataset, cls, traced=True, sanitizer=RunSanitizer(label="t")
            )
            check_trace(report)

    def test_sanitizer_rejects_tampered_critical_path(self, dataset):
        report = run(dataset, IndexedJoinQES, traced=True)
        tel = report.telemetry
        san = RunSanitizer(label="tamper")
        report.total_time += 1.0  # now cp.total != makespan
        with pytest.raises(Exception, match="critical-path"):
            san._check_telemetry(tel, report)
