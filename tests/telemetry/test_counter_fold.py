"""A counter track's running window sums equal the whole-history roll.

:class:`repro.telemetry.timeseries.CounterTrack` folds each increment
into its window as it arrives; ``tests/telemetry/reference_timeseries.py``
keeps the walk over the retained ``(t, cumulative)`` history it
replaced.  The rolled windows must be byte-equal (``json.dumps``, which
tells ``-0.0`` and every last bit apart) on drawn streams with
non-integer amounts, increments at the same instant, and increments
stamped exactly at a horizon ``t_end = k * width``.

``REPRO_REUSE_EXAMPLES`` multiplies the example budget (CI runs this
module at 10); tier-1 keeps the default of 1.
"""

import json
import os

from hypothesis import example, given, settings, strategies as st

from repro.telemetry.timeseries import CounterTrack, TimeSeriesRecorder
from tests.telemetry.reference_timeseries import cumulative_history, roll_counter

SCALE = int(os.environ.get("REPRO_REUSE_EXAMPLES", "1"))

WIDTHS = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.7, 1.0])
AMOUNTS = st.one_of(
    st.sampled_from([1.0, 0.1, 0.3, 0.7, 1e-9, 2.5, 1e16]),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def streams(draw):
    """``(width, t_end, [(t, amount)])``: times drawn on and between the
    window edges of ``[0, k * width]``, sorted, with repeats; ``t_end``
    is the edge ``k * width`` itself or past it."""
    width = draw(WIDTHS)
    k = draw(st.integers(1, 8))
    edge = k * width
    instants = st.one_of(
        st.floats(0.0, 1.0).map(lambda f: f * edge),
        st.integers(0, k).map(lambda i: i * width),
        st.just(edge),
    )
    times = sorted(draw(st.lists(instants, max_size=60)))
    increments = [(t, draw(AMOUNTS)) for t in times]
    t_end = draw(st.sampled_from([edge, edge + width * 0.5, edge + 3 * width]))
    return width, max(t_end, times[-1] if times else 0.0), increments


def fold(width, increments):
    track = CounterTrack("drawn", width)
    for t, amount in increments:
        track.inc(t, amount)
    return track


@settings(max_examples=200 * SCALE, deadline=None)
@given(streams())
@example((0.3, 0.3 * 3, [(0.6, 0.1), (0.3 * 3, 0.2), (0.3 * 3, 0.3)]))
@example((1.0, 2.0, [(0.5, 0.1), (1.0, 0.7), (2.0, 0.2), (2.0, 1e16), (2.0, 0.3)]))
# the horizon's window sums to 2.4; adding the increments at t_end = 1.0
# to it as one sum would give 2.4000000000000004
@example((0.5, 1.0, [(0.1, 0.1), (0.6, 0.7), (1.0, 0.3), (1.0, 0.7), (1.0, 0.7)]))
def test_windows_equal_the_whole_history_roll(stream):
    width, t_end, increments = stream
    track = fold(width, increments)
    expected = roll_counter(cumulative_history(increments), width, t_end)
    assert json.dumps(track.windows(t_end)) == json.dumps(expected)
    assert track.increments == len(increments)
    assert len(track._sums) + 1 <= len(expected) + 2


@settings(max_examples=50 * SCALE, deadline=None)
@given(streams())
def test_the_recorder_payload_rolls_the_same_windows(stream):
    width, t_end, increments = stream
    now = [0.0]
    rec = TimeSeriesRecorder(lambda: now[0], window=width)
    for t, amount in increments:
        now[0] = t
        rec.inc("drawn", amount)
    track = rec.to_payload(t_end)["counters"]["drawn"] if increments else None
    if track is not None:
        expected = roll_counter(cumulative_history(increments), width, t_end)
        assert json.dumps(track["windows"]) == json.dumps(expected)
    assert rec.point_count() == len(increments)
