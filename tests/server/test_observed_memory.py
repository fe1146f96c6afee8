"""An observed serve's memory is bounded in the length of the serve.

Checked by counts, not RSS: an observed serve of N queries per tenant
and one of 4N must both keep at most one block of trace rows plus the
rows since the oldest miss whose size is still unknown, and one whole
count per window reached per counter track — while ``point_count()``
still counts every point recorded.
"""

import pytest

from repro.observe import reuse
from repro.server import ObservabilityConfig, QueryServer
from repro.telemetry.timeseries import TimeSeriesRecorder
from repro.workloads import TenantSpec, generate_workload

from .test_chaos import make_dataset

BLOCK = 64
TRACED = ("hit", "miss", "insert", "drop")


class TraceProbe:
    """Subscribed after the recorder on one cache: after every traced
    event, how many rows the recorder holds, and how many rows back the
    oldest miss not yet followed by a size for its key lies."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.rows = self.peak = self.tail = 0
        self.unresolved = {}

    def on(self, node):
        def probe(op, key, nbytes, qid):
            if op not in TRACED:
                return
            if op == "miss":
                self.unresolved.setdefault((node, key), self.rows)
            else:
                self.unresolved.pop((node, key), None)
            self.rows += 1
            if self.unresolved:
                self.tail = max(self.tail, self.rows - min(self.unresolved.values()))
            self.peak = max(self.peak, len(self.recorder._times))

        return probe


def observed_serve(queries, monkeypatch):
    increments = {}
    inc = TimeSeriesRecorder.inc

    def counting_inc(self, name):
        increments[name] = increments.get(name, 0) + 1
        inc(self, name)

    monkeypatch.setattr(reuse, "_BLOCK", BLOCK)
    monkeypatch.setattr(TimeSeriesRecorder, "inc", counting_inc)
    server = QueryServer(
        make_dataset(replication=2), num_compute=2, slots=2, observe=ObservabilityConfig(window=0.5)
    )
    probe = TraceProbe(server.observatory.reuse)
    for node, cache in enumerate(server.caches):
        cache.subscribe(probe.on(node))
    tenants = [
        TenantSpec("a", 6.0, queries, (("scan", 1.0), ("join", 1.0), ("aggregate", 1.0))),
        TenantSpec("b", 5.0, queries, (("join", 1.0), ("scan", 1.0)), process="bursty"),
    ]
    report = server.serve(generate_workload(tenants, seed=3))
    return server, report, probe, increments


@pytest.fixture(scope="module")
def serves():
    out = []
    for queries in (10, 40):
        with pytest.MonkeyPatch.context() as monkeypatch:
            out.append(observed_serve(queries, monkeypatch))
    return out


def test_retained_trace_rows_do_not_grow_with_the_serve(serves):
    probes = [probe for _, _, probe, _ in serves]
    bound = BLOCK + max(p.tail for p in probes)
    for probe in probes:
        assert BLOCK <= probe.peak <= bound
    # the 4N serve recorded many times what it ever held at once
    assert probes[1].rows > 4 * probes[0].rows * 0.8
    assert probes[1].rows > 10 * bound


def test_counter_tracks_keep_one_int_per_window_reached(serves):
    for server, report, _, increments in serves:
        series = server.observatory.series
        counters = report.observability["timeseries"]["counters"]
        windows = len(next(iter(counters.values()))["windows"])
        for name in series.counter_names():
            counts = series._counts[name]
            # a terminal event stamped at the makespan reaches one window
            # past the horizon's last
            assert len(counts) <= windows + 1
            assert all(type(n) is int for n in counts)
            assert sum(counts) == increments[name]
        gauge_points = sum(len(series.gauge(name).samples) for name in series.gauge_names())
        assert series.point_count() == sum(increments.values()) + gauge_points
    assert sum(serves[1][3].values()) > 3 * sum(serves[0][3].values())
