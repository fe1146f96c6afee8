"""Windowed time-series tracks: recording, rolling, serialisation.

Two rolls are held to ``tests/telemetry/reference_timeseries.py``
byte for byte (``json.dumps``, which tells ``1`` from ``1.0`` and every
last bit apart): a counter track's whole counts per window against the
walk over the retained ``(t, cumulative)`` history it replaced, and the
one-pass :func:`~repro.telemetry.timeseries.roll_gauge` against the roll
that scanned every segment for every window — on drawn streams with
repeated instants, instants on window edges, at the horizon and past it.

``REPRO_REUSE_EXAMPLES`` multiplies those properties' example budgets
(CI runs the module at 10); tier-1 keeps the default of 1.
"""

import json
import math
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.observe.reuse import working_set_windows
from repro.telemetry.timeseries import (
    MAX_WINDOWS,
    TimeSeriesRecorder,
    roll_gauge,
    window_edges,
    window_index,
)
from tests.telemetry import reference_timeseries as reference

SCALE = int(os.environ.get("REPRO_REUSE_EXAMPLES", "1"))

WIDTHS = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.7, 1.0])
NAMES = ("a", "b", "c")
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 0.1, 1e16]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def instants(draw, past, max_size):
    """``(width, k, times)``: sorted times, with repeats, drawn on and
    between the window edges of ``[0, k * width]`` and on the ``past``
    edges after it."""
    width = draw(WIDTHS)
    k = draw(st.integers(1, 8))
    edge = k * width
    at = st.one_of(
        st.floats(0.0, 1.0).map(lambda f: f * edge),
        st.integers(0, k + past).map(lambda i: i * width),
        st.just(edge),
    )
    return width, k, sorted(draw(st.lists(at, max_size=max_size)))


@st.composite
def streams(draw):
    """``(width, t_end, [(t, name)])`` counter events; ``t_end`` is the
    edge ``k * width`` itself, past it, or before some events."""
    width, k, times = instants(draw, 0, 60)
    events = [(t, draw(st.sampled_from(NAMES))) for t in times]
    edge = k * width
    t_end = draw(st.sampled_from([edge, edge + width * 0.5, edge + 3 * width,
                                  (k - 1) * width, edge * 0.5]))
    return width, t_end, events


@st.composite
def gauges(draw):
    """``(width, t_end, [(t, value)])`` gauge samples, some past the
    horizon; ``t_end`` is an edge, between edges or zero."""
    width, k, times = instants(draw, 2, 40)
    samples = [(t, draw(VALUES)) for t in times]
    edge = k * width
    t_end = draw(st.sampled_from([edge, edge - width * 0.5, edge + width * 0.5, 0.0]))
    return width, t_end, samples


def counts(windows):
    return [w["count"] for w in windows]


def expected(width, t_end, times):
    """The frozen roll of unit increments at ``times``."""
    return reference.roll_counter(
        reference.cumulative_history([(t, 1.0) for t in times]), width, t_end
    )


class Clocked:
    """A recorder of ``width``-second windows on a settable clock."""

    def __init__(self, width=1.0):
        self.now = 0.0
        self.series = TimeSeriesRecorder(lambda: self.now, window=width)

    def inc_at(self, t, name="x"):
        self.now = t
        self.series.inc(name)

    def windows(self, t_end, name="x"):
        return self.series.to_payload(t_end)["counters"][name]["windows"]


def rolled(times, width, t_end):
    """One event at each of ``times`` through a counter track, rolled."""
    clocked = Clocked(width)
    for t in times:
        clocked.inc_at(t)
    return clocked.windows(t_end)


class TestCounterTrack:
    def test_accumulates_with_timestamps(self):
        c = Clocked()
        for t in (0.5, 0.5, 0.5, 1.5):
            c.inc_at(t)
        assert c.series.point_count() == 4
        assert c.series.to_payload(2.0)["counters"]["x"]["total"] == 4.0
        assert counts(c.windows(2.0)) == [3.0, 1.0]

    def test_rejects_negative_time(self):
        # int(-1.5) is -1: a list index that would credit the last window
        c = Clocked()
        for t in (-0.5, -1.5, -math.inf):
            with pytest.raises(ValueError, match="before the window grid"):
                window_index(t, 1.0)
            with pytest.raises(ValueError, match="before the window grid"):
                c.inc_at(t)
        assert window_index(-0.0, 1.0) == 0
        assert c.series.point_count() == 0

    def test_keeps_one_int_per_window_reached(self):
        c = Clocked(0.5)
        for i in range(1000):
            c.inc_at(i * 0.01)
        assert len(c.series._counts["x"]) == int(9.99 / 0.5) + 1
        assert all(type(n) is int for n in c.series._counts["x"])
        assert sum(c.series._counts["x"]) == 1000
        assert sum(counts(c.windows(10.0))) == 1000.0


class TestNonFiniteInputs:
    """Each of these used to corrupt a track without a word."""

    def test_nan_and_infinite_timestamps_are_refused(self):
        c = Clocked()
        c.inc_at(2.0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="window cap"):
                c.inc_at(t)
        assert c.series.point_count() == 1

    @pytest.mark.parametrize("window", [math.nan, math.inf, -1.0])
    def test_non_finite_recorder_window_is_refused(self, window):
        with pytest.raises(ValueError, match="window"):
            TimeSeriesRecorder(lambda: 0.0, window=window)

    @pytest.mark.parametrize("width,t_end", [
        (math.inf, 3.0), (math.nan, 3.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_non_finite_window_edges_are_refused(self, width, t_end):
        with pytest.raises(ValueError):
            window_edges(width, t_end)


class TestGaugeTrack:
    """The recorder's level tracks are :class:`repro.telemetry.metrics.Gauge`
    instruments; the rolled payload leans on these three rules."""

    @staticmethod
    def track():
        return TimeSeriesRecorder(clock=lambda: 0.0).gauge("depth")

    def test_same_instant_last_write_wins(self):
        g = self.track()
        g.set(1.0, 2.0)
        g.set(1.0, 5.0)
        assert g.samples == [(1.0, 5.0)]

    def test_equal_consecutive_values_coalesced(self):
        g = self.track()
        g.set(0.0, 1.0)
        g.set(1.0, 1.0)
        g.set(2.0, 3.0)
        assert g.samples == [(0.0, 1.0), (2.0, 3.0)]
        assert g.last == 3.0
        assert g.peak == 3.0

    def test_rejects_time_travel(self):
        g = self.track()
        g.set(2.0, 1.0)
        with pytest.raises(ValueError):
            g.set(1.0, 0.0)


class TestWindowEdges:
    def test_final_window_closed_at_horizon(self):
        assert window_edges(1.0, 2.5) == [(0.0, 1.0), (1.0, 2.0), (2.0, 2.5)]

    def test_exact_multiple_has_no_stub_window(self):
        assert window_edges(1.0, 2.0) == [(0.0, 1.0), (1.0, 2.0)]

    def test_empty_horizon_still_one_window(self):
        assert window_edges(1.0, 0.0) == [(0.0, 0.0)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            window_edges(0.0, 1.0)
        with pytest.raises(ValueError):
            window_edges(1.0, -1.0)

    def test_at_most_max_windows(self):
        """Every window index goes through ``window_index``: the edges,
        a counter increment and a folded access are refused past the cap,
        and none is at it."""
        width, cap = 0.5, MAX_WINDOWS * 0.5
        assert len(window_edges(width, cap)) == MAX_WINDOWS
        track = Clocked(width)
        track.inc_at(cap)
        assert len(working_set_windows([(cap, "hit", "k", 1)], width, cap)) == MAX_WINDOWS
        past = math.nextafter(cap, math.inf)
        for refused in (
            lambda: window_edges(width, past),
            lambda: track.inc_at(past),
            lambda: working_set_windows([(past, "hit", "k", 1)], width, cap),
            lambda: Clocked(1e-300).inc_at(1.0),
        ):
            with pytest.raises(ValueError, match=f"past the {MAX_WINDOWS}-window cap"):
                refused()
        assert track.series.point_count() == 1


class TestRollCounter:
    def test_counts_sum_to_total(self):
        times = [0.2, 0.8, 1.1, 1.1, 1.5, 2.5]
        windows = rolled(times, 1.0, 2.5)
        assert sum(w["count"] for w in windows) == 6.0
        assert [w["count"] for w in windows] == [2.0, 3.0, 1.0]

    def test_event_at_horizon_lands_in_final_window(self):
        windows = rolled([2.0], 1.0, 2.0)
        assert [w["count"] for w in windows] == [0.0, 1.0]

    def test_rate_uses_window_span(self):
        windows = rolled([0.25] * 4, 0.5, 0.5)
        assert windows == [{"t0": 0.0, "t1": 0.5, "count": 4.0, "rate": 8.0}]

    def test_events_past_the_horizon_join_the_final_window(self):
        windows = rolled([0.5, 2.5, 3.5, 3.5], 1.0, 1.5)
        assert [w["count"] for w in windows] == [1.0, 3.0]

    @settings(max_examples=200 * SCALE, deadline=None)
    @given(streams())
    @example((0.3, 0.3 * 3, [(0.6, "a"), (0.3 * 3, "a"), (0.3 * 3, "a")]))
    @example((1.0, 2.0, [(0.5, "a"), (1.0, "a"), (2.0, "a"), (2.0, "a"), (2.0, "a")]))
    # increments past a horizon that is not a window edge join its final window
    @example((0.5, 0.75, [(0.1, "a"), (0.6, "a"), (1.0, "a"), (1.0, "a"), (2.5, "a")]))
    def test_windows_equal_the_whole_history_roll(self, stream):
        width, t_end, events = stream
        times = [t for t, _ in events]
        clocked = Clocked(width)
        for t in times:
            clocked.inc_at(t)
        if not times:
            assert clocked.series.counter_names() == []
            return
        track = clocked.series.to_payload(t_end)["counters"]["x"]
        assert json.dumps(track["windows"]) == json.dumps(expected(width, t_end, times))
        assert json.dumps(track["total"]) == json.dumps(float(len(times)))
        # one whole count per window reached, and no more
        assert len(clocked.series._counts["x"]) == int(times[-1] / width) + 1


class TestRollGauge:
    def test_time_weighted_mean(self):
        # level 0 on [0,1), 4 on [1,2): window [0,2) mean is 2
        windows = roll_gauge([(0.0, 0.0), (1.0, 4.0)], 2.0, 2.0)
        assert windows[0]["mean"] == 2.0
        assert windows[0]["max"] == 4.0
        assert windows[0]["last"] == 4.0

    def test_undefined_before_first_sample(self):
        windows = roll_gauge([(1.5, 7.0)], 1.0, 2.0)
        assert windows[0] == {
            "t0": 0.0, "t1": 1.0, "mean": None, "max": None, "last": None,
        }
        assert windows[1]["mean"] == 7.0

    def test_no_samples_at_all(self):
        assert roll_gauge([], 1.0, 1.0) == [
            {"t0": 0.0, "t1": 1.0, "mean": None, "max": None, "last": None}
        ]

    @settings(max_examples=300 * SCALE, deadline=None)
    @given(gauges())
    @example((1.0, 0.0, [(0.0, 1.0), (0.0, -2.0), (0.5, 3.0)]))
    @example((0.1, 0.1 * 3, [(0.0, 1.0), (0.1 * 3, 4.0)]))
    @example((0.25, 1.0, [(0.25, -1.0), (1.0, 2.0), (1.5, 5.0)]))
    @example((0.5, 1.0, []))
    def test_one_pass_equals_the_full_scan(self, gauge):
        width, t_end, samples = gauge
        got = roll_gauge(samples, width, t_end)
        assert json.dumps(got) == json.dumps(reference.roll_gauge(samples, width, t_end))


class TestTimeSeriesRecorder:
    def _recorder(self):
        state = {"now": 0.0}
        rec = TimeSeriesRecorder(lambda: state["now"], window=1.0)
        return state, rec

    def test_stamps_through_the_clock(self):
        state, rec = self._recorder()
        rec.inc("served")
        state["now"] = 1.5
        rec.inc("served")
        rec.set("depth", 3.0)
        assert counts(rec.to_payload(2.0)["counters"]["served"]["windows"]) == [1.0, 1.0]
        assert rec.gauge("depth").samples == [(1.5, 3.0)]
        assert rec.point_count() == 3

    def test_payload_is_byte_identical_across_identical_runs(self):
        def run():
            state, rec = self._recorder()
            for t in (0.1, 0.7, 1.2, 2.9):
                state["now"] = t
                rec.inc("served")
                rec.set("depth", t * 2)
            return json.dumps(rec.to_payload(3.0), sort_keys=True)

        assert run() == json.dumps(json.loads(run()), sort_keys=True)
        assert run() == run()

    def test_payload_counts_sum_and_names_sorted(self):
        state, rec = self._recorder()
        rec.inc("b.count")
        rec.inc("b.count")
        state["now"] = 1.4
        rec.inc("a.count")
        payload = rec.to_payload(2.0)
        assert list(payload["counters"]) == ["a.count", "b.count"]
        for track in payload["counters"].values():
            assert sum(w["count"] for w in track["windows"]) == track["total"]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(lambda: 0.0, window=0.0)

    @settings(max_examples=50 * SCALE, deadline=None)
    @given(streams())
    def test_the_recorder_payload_rolls_the_same_windows(self, stream):
        width, t_end, events = stream
        clocked = Clocked(width)
        for t, name in events:
            clocked.inc_at(t, name)
        clocked.series.set("level", 1.0)
        counters = clocked.series.to_payload(t_end)["counters"]
        assert list(counters) == sorted({name for _, name in events})
        for name, track in counters.items():
            want = expected(width, t_end, [t for t, n in events if n == name])
            assert json.dumps(track["windows"]) == json.dumps(want)
        assert clocked.series.point_count() == len(events) + 1
