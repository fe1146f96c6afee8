"""Windowed time-series tracks: recording, rolling, serialisation."""

import json
import math

import pytest

from repro.observe.reuse import working_set_windows
from repro.telemetry.timeseries import (
    MAX_WINDOWS,
    TimeSeriesRecorder,
    roll_gauge,
    window_edges,
    window_index,
)


def counts(windows):
    return [w["count"] for w in windows]


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
