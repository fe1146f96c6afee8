"""An observed serve's ``server.*`` counter tracks equal an independent
count of the lifecycle channel.

A test-side subscriber on :meth:`repro.server.QueryServer.subscribe`
notes the simulated instant of every submission, admission, retry,
fault and terminal disposition; the frozen whole-history roll
(``tests/telemetry/reference_timeseries.py``) turns those instants into
per-window counts.  The report's tracks must be byte-equal to it
(``json.dumps``) — on named scenarios that reach retries, faults,
deadlines and shedding, with events and the makespan exactly on a window
edge, and on drawn serves.
"""

import dataclasses
import json

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.server import ObservabilityConfig, QueryServer, ResilienceConfig
from tests.telemetry.reference_timeseries import cumulative_history, roll_counter

from .test_chaos import BURSTY, SLOW, TENANTS, arrivals, make_dataset

#: the lifecycle kinds the observatory counts, by their track
_TRACK = {
    "submit": "server.submitted",
    "admit": "server.admitted",
    "retry": "server.retries",
    "fault": "server.faults",
}


class Counting:
    """Lifecycle subscriber: ``(t, track)`` for every counted event."""

    def __init__(self, server):
        self.events = []
        self._engine = server.cluster.engine
        server.subscribe(self)

    def __call__(self, kind, subject, slots_free, depth, fields):
        if kind == "terminal":
            track = f"server.disposition.{subject.disposition}"
        else:
            track = _TRACK.get(kind)
        if track is not None:
            self.events.append((self._engine.now, track))


def serve(stream, window, replication=1, num_compute=2, **kwargs):
    server = QueryServer(
        make_dataset(replication, functional=False), num_compute, machine=SLOW,
        observe=ObservabilityConfig(window=window), **kwargs,
    )
    counting = Counting(server)
    report = server.serve(stream)
    return report, counting.events


def check_tracks(stream, window, **kwargs):
    """Serve ``stream`` observed with ``window``-second windows (a
    callable takes the unobserved makespan); the report's ``server.*``
    tracks must be the rolled recount.  Returns the served report, the
    counted events and the width."""
    if callable(window):
        report, _ = serve(stream, 1.0, **kwargs)
        window = window(report.makespan)
    report, events = serve(stream, window, **kwargs)
    tracks = report.observability["timeseries"]["counters"]
    served = {name: track for name, track in tracks.items() if name.startswith("server.")}
    expected = {}
    for name in sorted({track for _, track in events}):
        history = cumulative_history([(t, 1.0) for t, n in events if n == name])
        expected[name] = {
            "total": history[-1][1],
            "windows": roll_counter(history, window, report.makespan),
        }
    assert json.dumps(served) == json.dumps(expected)
    return report, events, window


def on_edge(t, width):
    return t > 0 and (t / width).is_integer()


def dyadic(stream, step=2.0 ** -4):
    """``stream`` with every arrival moved to a multiple of ``step``, so
    submissions land on the edges of dyadic windows."""
    return [dataclasses.replace(a, at=round(a.at / step) * step) for a in stream]


def with_deadline(stream, deadline):
    return [dataclasses.replace(a, deadline=deadline) for a in stream]


#: named scenarios, each with the lifecycle kind it must reach
SCENARIOS = {
    "retries": (dict(faults="seed=9,transient=0.5,max_attempts=2"), "server.faults"),
    "faulted-deadlines": (
        dict(faults="seed=9,transient=0.5,max_attempts=2", deadline=0.5),
        "server.disposition.deadline_exceeded",
    ),
    "deadlines": (dict(deadline=0.02, slots=1), "server.disposition.deadline_exceeded"),
    "shedding": (
        dict(tenants=BURSTY, slots=1, resilience=ResilienceConfig(queue_limit=2)),
        "server.disposition.shed",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("edge", ["events", "makespan"])
def test_named_serves_count_every_event(name, edge):
    scenario, reached = SCENARIOS[name]
    scenario = dict(scenario)
    stream = dyadic(arrivals(tenants=scenario.pop("tenants", TENANTS)))
    deadline = scenario.pop("deadline", None)
    if deadline is not None:
        stream = with_deadline(stream, deadline)
    # dyadic submissions on window edges, or the makespan itself on the
    # edge of the last of eight windows
    window = 2.0 ** -4 if edge == "events" else (lambda makespan: makespan / 8)
    report, events, width = check_tracks(stream, window, **scenario)
    assert reached in {track for _, track in events}
    if edge == "events":
        assert any(on_edge(t, width) for t, _ in events)
    else:
        assert report.makespan == 8 * width
        assert events[-1][0] == report.makespan


@st.composite
def draws(draw):
    tenants = draw(st.sampled_from([TENANTS, BURSTY]))
    stream = arrivals(seed=draw(st.integers(0, 2**16)), tenants=tenants)
    if draw(st.booleans()):
        stream = dyadic(stream)
    deadline = draw(st.sampled_from([None, 0.02, 0.5]))
    if deadline is not None:
        stream = with_deadline(stream, deadline)
    kwargs = draw(st.sampled_from([
        {},
        dict(faults="seed=7,storage_crash=0.3", replication=2),
        dict(faults="seed=9,transient=0.5,max_attempts=2"),
        dict(faults="seed=5,transient=0.3,storage_crash=0.1", replication=2),
    ]))
    kwargs["slots"] = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        kwargs["resilience"] = ResilienceConfig(queue_limit=2)
    window = draw(st.one_of(
        st.sampled_from([2.0 ** -4, 0.25, 0.37, 1.0]),
        st.integers(1, 16).map(lambda k: lambda makespan: makespan / k),
    ))
    return stream, window, kwargs


@seed(40)
@settings(max_examples=15, deadline=None)
@given(draws())
def test_drawn_serves_count_every_event(draw):
    stream, window, kwargs = draw
    check_tracks(stream, window, **kwargs)
