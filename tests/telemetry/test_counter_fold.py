"""A counter track's whole counts per window equal the whole-history roll.

:meth:`repro.telemetry.timeseries.TimeSeriesRecorder.inc` counts each
event into its window as it arrives;
``tests/telemetry/reference_timeseries.py`` keeps the walk over the
retained ``(t, cumulative)`` history it replaced.  The rolled windows
must be byte-equal (``json.dumps``, which tells ``1`` from ``1.0`` and
every last bit apart) on drawn streams with events at the same instant,
events stamped exactly at a horizon ``t_end = k * width`` and events
past the horizon.

``REPRO_REUSE_EXAMPLES`` multiplies the example budget (CI runs this
module at 10); tier-1 keeps the default of 1.
"""

import json
import os

from hypothesis import example, given, settings, strategies as st

from repro.telemetry.timeseries import TimeSeriesRecorder
from tests.telemetry.reference_timeseries import cumulative_history, roll_counter

SCALE = int(os.environ.get("REPRO_REUSE_EXAMPLES", "1"))

WIDTHS = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.7, 1.0])
NAMES = ("a", "b", "c")


@st.composite
def streams(draw):
    """``(width, t_end, [(t, name)])``: times drawn on and between the
    window edges of ``[0, k * width]``, sorted, with repeats; ``t_end``
    is the edge ``k * width`` itself, past it, or before some events."""
    width = draw(WIDTHS)
    k = draw(st.integers(1, 8))
    edge = k * width
    instants = st.one_of(
        st.floats(0.0, 1.0).map(lambda f: f * edge),
        st.integers(0, k).map(lambda i: i * width),
        st.just(edge),
    )
    times = sorted(draw(st.lists(instants, max_size=60)))
    events = [(t, draw(st.sampled_from(NAMES))) for t in times]
    t_end = draw(st.sampled_from([edge, edge + width * 0.5, edge + 3 * width,
                                  (k - 1) * width, edge * 0.5]))
    return width, t_end, events


def record(width, events):
    now = [0.0]
    rec = TimeSeriesRecorder(lambda: now[0], window=width)
    for t, name in events:
        now[0] = t
        rec.inc(name)
    return rec


def expected(width, t_end, times):
    """The frozen roll of unit increments at ``times``."""
    return roll_counter(cumulative_history([(t, 1.0) for t in times]), width, t_end)


@settings(max_examples=200 * SCALE, deadline=None)
@given(streams())
@example((0.3, 0.3 * 3, [(0.6, "a"), (0.3 * 3, "a"), (0.3 * 3, "a")]))
@example((1.0, 2.0, [(0.5, "a"), (1.0, "a"), (2.0, "a"), (2.0, "a"), (2.0, "a")]))
# increments past a horizon that is not a window edge join its final window
@example((0.5, 0.75, [(0.1, "a"), (0.6, "a"), (1.0, "a"), (1.0, "a"), (2.5, "a")]))
def test_windows_equal_the_whole_history_roll(stream):
    width, t_end, events = stream
    times = [t for t, _ in events]
    rec = record(width, [(t, "drawn") for t in times])
    if not times:
        assert rec.counter_names() == []
        return
    track = rec.to_payload(t_end)["counters"]["drawn"]
    want = expected(width, t_end, times)
    assert json.dumps(track["windows"]) == json.dumps(want)
    assert json.dumps(track["total"]) == json.dumps(float(len(times)))
    # one whole count per window reached, and no more
    assert len(rec._counts["drawn"]) == int(times[-1] / width) + 1


@settings(max_examples=50 * SCALE, deadline=None)
@given(streams())
def test_the_recorder_payload_rolls_the_same_windows(stream):
    width, t_end, events = stream
    rec = record(width, events)
    rec.set("level", 1.0)
    counters = rec.to_payload(t_end)["counters"]
    assert list(counters) == sorted({name for _, name in events})
    for name, track in counters.items():
        want = expected(width, t_end, [t for t, n in events if n == name])
        assert json.dumps(track["windows"]) == json.dumps(want)
    assert rec.point_count() == len(events) + 1
