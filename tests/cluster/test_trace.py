"""Tests for execution tracing: the hub's resource-occupancy spans, the
overlap invariant the recorder holds them to, and the resource views of
``repro.telemetry.export`` (Gantt chart and busy summary) over them."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    BandwidthResource,
    ClusterSim,
    ClusterTopology,
    SimEngine,
)
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.telemetry import Telemetry
from repro.telemetry.export import gantt, resource_intervals, resource_summary
from repro.telemetry.spans import OverlapError
from repro.workloads import GridSpec, build_oil_reservoir_dataset
from tests.telemetry.reference_tracer import ReferenceTracer


def recorded(*intervals):
    """A hub holding ``(resource, start, end)`` intervals, in order."""
    tel = Telemetry()
    for iv in intervals:
        tel.recorder.record_interval(*iv)
    return tel


def busy(tel, resource):
    return math.fsum(s.duration for s in resource_intervals(tel).get(resource, []))


def horizon(tel):
    return max((s.end for ss in resource_intervals(tel).values() for s in ss), default=0.0)


class TestTracerBasics:
    def test_record_and_query(self):
        tel = recorded(("disk", 0.0, 1.0), ("disk", 2.0, 3.0), ("nic", 0.5, 2.5))
        assert busy(tel, "disk") == pytest.approx(2.0)
        assert busy(tel, "nic") == pytest.approx(2.0)
        assert list(resource_intervals(tel)) == ["disk", "nic"]
        assert resource_summary(tel).splitlines() == [
            "horizon: 3.000s",
            "  nic            busy    2.000s  (66.7%)",
            "  disk           busy    2.000s  (66.7%)",
        ]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            recorded(("x", 2.0, 1.0))

    def test_empty_tracer(self):
        tel = Telemetry()
        assert resource_intervals(tel) == {}
        assert resource_summary(tel) == "horizon: 0.000s"
        assert gantt(tel) != ""
        assert gantt(tel, resources=["nothing"]).splitlines()[0].endswith("  0.0%")

    def test_gantt_marks_busy_cells(self):
        tel = recorded(("disk", 0.0, 5.0), ("disk", 5.0, 10.0))
        chart = gantt(tel, width=10, resources=["disk"])
        row = chart.splitlines()[0]
        assert row.count("#") == 10  # fully busy
        assert "100.0%" in row

    def test_gantt_zero_length_interval_visible(self):
        tel = recorded(("cpu", 0.0, 10.0), ("disk", 5.0, 5.0))
        chart = gantt(tel, width=10)
        disk_row = [l for l in chart.splitlines() if l.startswith("disk")][0]
        assert "#" in disk_row

    def test_gantt_width_validation(self):
        with pytest.raises(ValueError):
            gantt(Telemetry(), width=0)

    def test_summary_sorted_by_busy(self):
        tel = recorded(("a", 0, 1), ("b", 0, 5))
        lines = resource_summary(tel).splitlines()
        assert "b" in lines[1] and "a" in lines[2]


class TestOverlapDetection:
    def test_overlapping_intervals_raise(self):
        tel = recorded(("disk", 0.0, 2.0))
        with pytest.raises(OverlapError, match="'disk'"):
            tel.recorder.record_interval("disk", 1.0, 3.0)

    def test_overlap_detected_out_of_order(self):
        tel = recorded(("disk", 4.0, 6.0))
        with pytest.raises(OverlapError):
            tel.recorder.record_interval("disk", 3.0, 5.0)

    def test_containment_is_overlap(self):
        tel = recorded(("disk", 0.0, 10.0))
        with pytest.raises(OverlapError):
            tel.recorder.record_interval("disk", 2.0, 3.0)
        # the refused interval is not recorded
        assert len(resource_intervals(tel)["disk"]) == 1

    def test_touching_endpoints_allowed(self):
        tel = recorded(("disk", 0.0, 1.0), ("disk", 1.0, 2.0))  # back-to-back
        assert busy(tel, "disk") == pytest.approx(2.0)

    def test_distinct_resources_may_overlap(self):
        tel = recorded(("disk", 0.0, 2.0), ("nic", 1.0, 3.0))  # different devices
        assert horizon(tel) == 3.0

    def test_utilisation_never_clamps_quietly(self):
        # spans opened by hand bypass the recorder's invariant: two
        # overlapping ones make busy time exceed the horizon, which the
        # views refuse to draw as 100%
        tel = Telemetry()
        rec = tel.recorder
        for _ in range(2):
            span = rec.begin("disk", category="resource", parent=None,
                             start=0.0, detached=True)
            rec.finish(span, at=4.0)
        with pytest.raises(OverlapError, match="busy time exceeds"):
            gantt(tel)
        with pytest.raises(OverlapError, match="busy time exceeds"):
            resource_summary(tel)


class TestGanttEdgeCases:
    def test_zero_horizon_only_zero_length_intervals(self):
        tel = recorded(("disk", 0.0, 0.0))
        assert horizon(tel) == 0.0
        chart = gantt(tel, width=10)
        disk_row = chart.splitlines()[0]
        assert disk_row.startswith("disk")
        assert "0.0%" in disk_row  # zero horizon -> utilisation 0, no crash

    def test_single_zero_length_interval_visible(self):
        tel = recorded(("cpu", 0.0, 8.0), ("disk", 8.0, 8.0))  # at the horizon
        chart = gantt(tel, width=8)
        disk_row = [l for l in chart.splitlines() if l.startswith("disk")][0]
        assert disk_row.count("#") == 1

    def test_resource_name_alignment(self):
        tel = recorded(("a", 0.0, 1.0), ("longer-name", 0.0, 1.0))
        lines = gantt(tel, width=12).splitlines()
        # every row's first bar is in the same column
        bars = {line.index("|") for line in lines[:-1]}
        assert len(bars) == 1
        # scale line is padded to the same label width
        assert lines[-1].index("0") == lines[0].index("|") + 1

    def test_width_one(self):
        tel = recorded(("disk", 0.0, 1.0), ("cpu", 0.5, 1.0))
        chart = gantt(tel, width=1)
        for line in chart.splitlines()[:-1]:
            assert "|#|" in line

    def test_gantt_row_cells_never_exceed_width(self):
        # zero-length at the exact horizon
        tel = recorded(("disk", 0.0, 10.0), ("disk", 10.0, 10.0))
        chart = gantt(tel, width=5, resources=["disk"])
        row = chart.splitlines()[0]
        assert row.count("#") == 5


#: per resource, gaps and durations drawn from a small grid so touching
#: (gap 0), zero-length (duration 0) and coinciding ends all occur often
_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]),
              st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.75, 1e-7])),
    max_size=6,
)


@st.composite
def disjoint_intervals(draw):
    """Disjoint intervals on up to four resources, interleaved in a drawn
    record order (per resource, in start order — the recorder's rule)."""
    per = {}
    for name in draw(st.lists(st.sampled_from(["s0.disk", "nic3", "c1.cpu", "a"]),
                              min_size=1, max_size=4, unique=True)):
        t, ivs = 0.0, []
        for gap, dur in draw(_steps):
            ivs.append((name, t + gap, t + gap + dur))
            t = t + gap + dur
        per[name] = ivs
    order = draw(st.permutations([n for n, ivs in per.items() for _ in ivs]))
    queues = {n: list(ivs) for n, ivs in per.items()}
    return [queues[n].pop(0) for n in order]


class TestFrozenRendering:
    """``gantt`` and ``resource_summary`` print what the frozen view
    printed, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(intervals=disjoint_intervals(), width=st.integers(1, 80),
           pick=st.booleans(), data=st.data())
    def test_views_equal_the_frozen_ones(self, intervals, width, pick, data):
        tel = recorded(*intervals)
        ref = ReferenceTracer(intervals)
        resources = None
        if pick:
            # an explicit row list: reordered, subset, unknown names
            names = sorted({iv[0] for iv in intervals}) + ["idle"]
            resources = data.draw(st.lists(st.sampled_from(names), unique=True))
        assert gantt(tel, width=width, resources=resources) == ref.gantt(
            width=width, resources=resources
        )
        assert resource_summary(tel) == ref.summary()

    def test_a_horizon_touching_interval_and_a_recorded_example(self):
        intervals = [("nic", 0.0, 2.0), ("disk", 0.0, 0.0), ("disk", 0.0, 3.0),
                     ("nic", 3.0, 3.0)]
        tel = recorded(*intervals)
        ref = ReferenceTracer(intervals)
        for width in (1, 2, 7, 64):
            assert gantt(tel, width=width) == ref.gantt(width=width)
        assert resource_summary(tel) == ref.summary()


class TestEngineIntegration:
    @staticmethod
    def watched():
        eng = SimEngine()
        tel = Telemetry(eng)
        tel.watch_engine(eng, faults=False)
        return eng, tel

    def test_resources_record_when_traced(self):
        eng, tel = self.watched()
        r = BandwidthResource(eng, bandwidth=10.0, name="dev")

        def proc():
            yield r.reserve_at_rate(50, r.bandwidth)
            yield r.reserve_at_rate(30, r.bandwidth)

        eng.drive(eng.process(proc()))
        ivs = resource_intervals(tel)["dev"]
        assert len(ivs) == 2
        assert ivs[0].start == 0.0 and ivs[0].end == pytest.approx(5.0)
        assert ivs[1].start == pytest.approx(5.0) and ivs[1].end == pytest.approx(8.0)

    def test_no_recording_without_tracer(self):
        eng = SimEngine()
        r = BandwidthResource(eng, bandwidth=10.0, name="dev")

        def proc():
            yield r.reserve_at_rate(50, r.bandwidth)

        eng.drive(eng.process(proc()))  # must not raise; nothing is subscribed

    def test_joint_and_pipeline_record_per_resource(self):
        eng, tel = self.watched()
        a = BandwidthResource(eng, bandwidth=10.0, name="a")
        b = BandwidthResource(eng, bandwidth=20.0, name="b")

        def proc():
            yield BandwidthResource.reserve_joint([a, b], 100)
            yield BandwidthResource.reserve_pipeline([a, b], 100)

        eng.drive(eng.process(proc()))
        a_ivs = resource_intervals(tel)["a"]
        b_ivs = resource_intervals(tel)["b"]
        assert len(a_ivs) == len(b_ivs) == 2
        # joint: both held for the slower duration
        assert a_ivs[0].duration == b_ivs[0].duration == pytest.approx(10.0)
        # pipeline: each held only for its own service
        assert a_ivs[1].duration == pytest.approx(10.0)
        assert b_ivs[1].duration == pytest.approx(5.0)


SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))


class TestClusterTracing:
    def test_traced_execution_busy_matches_stats(self):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=False)
        sim = ClusterSim(ClusterTopology(2, 2), telemetry=True)
        # a second subscriber recounts each resource's busy time from the
        # engine's channel, beside the hub that records the spans
        recount = {}

        def on_event(kind, *fields):
            if kind == "reserve":
                name, _now, start, end, _nbytes = fields
                recount[name] = recount.get(name, 0.0) + (end - start)

        sim.engine.subscribe(on_event)
        IndexedJoinQES(sim, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider).run()
        tel = sim.telemetry
        assert resource_intervals(tel)
        assert all(s.disk.name in recount for s in sim.storage_nodes)
        for name, seconds in recount.items():
            assert busy(tel, name) == pytest.approx(seconds)
        # no interval extends past the simulation end
        assert horizon(tel) <= sim.engine.now + 1e-12

    def test_gh_trace_shows_scratch_phase(self):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=False)
        sim = ClusterSim(ClusterTopology(2, 2), telemetry=True)
        GraceHashQES(sim, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider).run()
        scratch_names = [c.scratch.name for c in sim.compute_nodes]
        for name in scratch_names:
            assert busy(sim.telemetry, name) > 0
        chart = gantt(sim.telemetry, width=40)
        assert all(name in chart for name in scratch_names)

    def test_the_hub_is_the_one_subscriber(self):
        """Before any QES attaches, a traced cluster's engine has one
        subscriber — the hub, which records occupancy and its metrics."""
        sim = ClusterSim(ClusterTopology(2, 2), telemetry=True, faults="seed=1")
        assert sim.engine._subscribers == [sim.telemetry]
        assert ClusterSim(ClusterTopology(2, 2)).engine._subscribers == []

    def test_a_rewound_resource_is_an_overlap_naming_it(self):
        """A reservation calculus that lets a resource be booked twice for
        the same time fails the traced run, naming the resource."""
        # one storage node serving two joiners: its NIC queues requests
        ds = build_oil_reservoir_dataset(SPEC, num_storage=1, functional=False)
        sim = ClusterSim(ClusterTopology(1, 2), telemetry=True)
        nic = sim.fabric.nic(sim.storage_nodes[0].fabric_id)
        requests = []

        def rewind(kind, *fields):
            # after the NIC's third reservation, forget it was ever busy
            if kind == "reserve" and fields[0] == nic.name:
                requests.append(fields)
                if len(requests) == 3:
                    nic._busy_until = 0.0

        sim.engine.subscribe(rewind)
        qes = IndexedJoinQES(sim, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider)
        with pytest.raises(OverlapError, match=repr(nic.name)):
            qes.run()
        assert len(requests) == 3
