"""Tests for execution tracing."""

import pytest

from repro.cluster import (
    BandwidthResource,
    ClusterSim,
    ClusterTopology,
    SimEngine,
    Tracer,
)
from repro.cluster.trace import OverlapError
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.workloads import GridSpec, build_oil_reservoir_dataset


class TestTracerBasics:
    def test_record_and_query(self):
        t = Tracer()
        t.record("disk", 0.0, 1.0)
        t.record("disk", 2.0, 3.0)
        t.record("nic", 0.5, 2.5)
        assert t.horizon == 3.0
        assert t.busy_time("disk") == pytest.approx(2.0)
        assert t.busy_time("nic") == pytest.approx(2.0)
        assert t.utilisation("disk") == pytest.approx(2.0 / 3.0)
        assert set(t.resources()) == {"disk", "nic"}

    def test_invalid_interval(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.record("x", 2.0, 1.0)

    def test_empty_tracer(self):
        t = Tracer()
        assert t.horizon == 0.0
        assert t.utilisation("nothing") == 0.0
        assert t.gantt() != ""

    def test_gantt_marks_busy_cells(self):
        t = Tracer()
        t.record("disk", 0.0, 5.0)
        t.record("disk", 5.0, 10.0)
        chart = t.gantt(width=10, resources=["disk"])
        row = chart.splitlines()[0]
        assert row.count("#") == 10  # fully busy
        assert "100.0%" in row

    def test_gantt_zero_length_interval_visible(self):
        t = Tracer()
        t.record("cpu", 0.0, 10.0)
        t.record("disk", 5.0, 5.0)
        chart = t.gantt(width=10)
        disk_row = [l for l in chart.splitlines() if l.startswith("disk")][0]
        assert "#" in disk_row

    def test_gantt_width_validation(self):
        with pytest.raises(ValueError):
            Tracer().gantt(width=0)

    def test_summary_sorted_by_busy(self):
        t = Tracer()
        t.record("a", 0, 1)
        t.record("b", 0, 5)
        lines = t.summary().splitlines()
        assert "b" in lines[1] and "a" in lines[2]


class TestOverlapDetection:
    def test_overlapping_intervals_raise(self):
        t = Tracer()
        t.record("disk", 0.0, 2.0)
        with pytest.raises(OverlapError):
            t.record("disk", 1.0, 3.0)

    def test_overlap_detected_out_of_order(self):
        t = Tracer()
        t.record("disk", 4.0, 6.0)
        with pytest.raises(OverlapError):
            t.record("disk", 3.0, 5.0)

    def test_containment_is_overlap(self):
        t = Tracer()
        t.record("disk", 0.0, 10.0)
        with pytest.raises(OverlapError):
            t.record("disk", 2.0, 3.0)

    def test_touching_endpoints_allowed(self):
        t = Tracer()
        t.record("disk", 0.0, 1.0)
        t.record("disk", 1.0, 2.0)  # back-to-back is fine
        assert t.busy_time("disk") == pytest.approx(2.0)

    def test_distinct_resources_may_overlap(self):
        t = Tracer()
        t.record("disk", 0.0, 2.0)
        t.record("nic", 1.0, 3.0)  # different device — no clash
        assert t.horizon == 3.0

    def test_utilisation_never_clamps_quietly(self):
        t = Tracer()
        t.record("disk", 0.0, 4.0)
        # a horizon shorter than the busy time means someone mis-measured
        with pytest.raises(OverlapError):
            t.utilisation("disk", horizon=2.0)


class TestGanttEdgeCases:
    def test_zero_horizon_only_zero_length_intervals(self):
        t = Tracer()
        t.record("disk", 0.0, 0.0)
        assert t.horizon == 0.0
        chart = t.gantt(width=10)
        disk_row = chart.splitlines()[0]
        assert disk_row.startswith("disk")
        assert "0.0%" in disk_row  # zero horizon -> utilisation 0, no crash

    def test_single_zero_length_interval_visible(self):
        t = Tracer()
        t.record("cpu", 0.0, 8.0)
        t.record("disk", 8.0, 8.0)  # at the very end of the horizon
        chart = t.gantt(width=8)
        disk_row = [l for l in chart.splitlines() if l.startswith("disk")][0]
        assert disk_row.count("#") == 1

    def test_resource_name_alignment(self):
        t = Tracer()
        t.record("a", 0.0, 1.0)
        t.record("longer-name", 0.0, 1.0)
        lines = t.gantt(width=12).splitlines()
        # every row's first bar is in the same column
        bars = {line.index("|") for line in lines[:-1]}
        assert len(bars) == 1
        # scale line is padded to the same label width
        assert lines[-1].index("0") == lines[0].index("|") + 1

    def test_width_one(self):
        t = Tracer()
        t.record("disk", 0.0, 1.0)
        t.record("cpu", 0.5, 1.0)
        chart = t.gantt(width=1)
        for line in chart.splitlines()[:-1]:
            assert "|#|" in line

    def test_gantt_row_cells_never_exceed_width(self):
        t = Tracer()
        t.record("disk", 0.0, 10.0)
        t.record("disk", 10.0, 10.0)  # zero-length at the exact horizon
        chart = t.gantt(width=5, resources=["disk"])
        row = chart.splitlines()[0]
        assert row.count("#") == 5


class TestEngineIntegration:
    def test_resources_record_when_traced(self):
        eng = SimEngine()
        tracer = Tracer()
        eng.subscribe(tracer)
        r = BandwidthResource(eng, bandwidth=10.0, name="dev")

        def proc():
            yield r.reserve(50)
            yield r.reserve(30)

        eng.run_process(proc())
        ivs = tracer.by_resource("dev")
        assert len(ivs) == 2
        assert ivs[0].start == 0.0 and ivs[0].end == pytest.approx(5.0)
        assert ivs[1].start == pytest.approx(5.0) and ivs[1].end == pytest.approx(8.0)

    def test_no_recording_without_tracer(self):
        eng = SimEngine()
        r = BandwidthResource(eng, bandwidth=10.0, name="dev")

        def proc():
            yield r.reserve(50)

        eng.run_process(proc())  # must not raise; nothing is subscribed

    def test_joint_and_pipeline_record_per_resource(self):
        eng = SimEngine()
        tracer = Tracer()
        eng.subscribe(tracer)
        a = BandwidthResource(eng, bandwidth=10.0, name="a")
        b = BandwidthResource(eng, bandwidth=20.0, name="b")

        def proc():
            yield BandwidthResource.reserve_joint([a, b], 100)
            yield BandwidthResource.reserve_pipeline([a, b], 100)

        eng.run_process(proc())
        a_ivs = tracer.by_resource("a")
        b_ivs = tracer.by_resource("b")
        assert len(a_ivs) == len(b_ivs) == 2
        # joint: both held for the slower duration
        assert a_ivs[0].duration == b_ivs[0].duration == pytest.approx(10.0)
        # pipeline: each held only for its own service
        assert a_ivs[1].duration == pytest.approx(10.0)
        assert b_ivs[1].duration == pytest.approx(5.0)


class TestClusterTracing:
    def test_traced_execution_busy_matches_stats(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=2, functional=False)
        sim = ClusterSim(ClusterTopology(2, 2), trace=True)
        IndexedJoinQES(sim, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider).run()
        tracer = sim.tracer
        assert tracer is not None and tracer.intervals
        # trace busy time agrees with the resource counters
        for s in sim.storage_nodes:
            assert tracer.busy_time(s.disk.name) == pytest.approx(s.disk.stats.busy_time)
        # no interval extends past the simulation end
        assert tracer.horizon <= sim.engine.now + 1e-12

    def test_gh_trace_shows_scratch_phase(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=2, functional=False)
        sim = ClusterSim(ClusterTopology(2, 2), trace=True)
        GraceHashQES(sim, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider).run()
        scratch_names = [c.scratch.name for c in sim.compute_nodes]
        for name in scratch_names:
            assert sim.tracer.busy_time(name) > 0
        chart = sim.tracer.gantt(width=40)
        assert all(name in chart for name in scratch_names)
