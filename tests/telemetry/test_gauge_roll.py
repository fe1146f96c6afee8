"""The one-pass gauge roll equals the roll that scanned every segment.

:func:`repro.telemetry.timeseries.roll_gauge` walks windows and
segments together; ``tests/telemetry/reference_timeseries.py`` keeps the
roll that scanned every segment for every window.  The rolled windows
must be byte-equal (``json.dumps``) on drawn sample streams with samples
on window edges, samples at and past the horizon, a zero-length horizon,
repeated instants and negative values.

``REPRO_REUSE_EXAMPLES`` multiplies the example budget (CI runs this
module at 10); tier-1 keeps the default of 1.
"""

import json
import os

from hypothesis import example, given, settings, strategies as st

from repro.telemetry.timeseries import roll_gauge
from tests.telemetry import reference_timeseries as reference

SCALE = int(os.environ.get("REPRO_REUSE_EXAMPLES", "1"))

WIDTHS = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.7, 1.0])
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 0.1, 1e16]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def gauges(draw):
    """``(width, t_end, [(t, value)])``: sample times drawn on and
    between the window edges of ``[0, k * width]`` and past it, sorted,
    with repeats; ``t_end`` is an edge, between edges or zero."""
    width = draw(WIDTHS)
    k = draw(st.integers(1, 8))
    edge = k * width
    instants = st.one_of(
        st.floats(0.0, 1.0).map(lambda f: f * edge),
        st.integers(0, k + 2).map(lambda i: i * width),
        st.just(edge),
    )
    times = sorted(draw(st.lists(instants, max_size=40)))
    samples = [(t, draw(VALUES)) for t in times]
    t_end = draw(st.sampled_from([edge, edge - width * 0.5, edge + width * 0.5, 0.0]))
    return width, t_end, samples


@settings(max_examples=300 * SCALE, deadline=None)
@given(gauges())
@example((1.0, 0.0, [(0.0, 1.0), (0.0, -2.0), (0.5, 3.0)]))
@example((0.1, 0.1 * 3, [(0.0, 1.0), (0.1 * 3, 4.0)]))
@example((0.25, 1.0, [(0.25, -1.0), (1.0, 2.0), (1.5, 5.0)]))
@example((0.5, 1.0, []))
def test_one_pass_equals_the_full_scan(gauge):
    width, t_end, samples = gauge
    got = roll_gauge(samples, width, t_end)
    assert json.dumps(got) == json.dumps(reference.roll_gauge(samples, width, t_end))
