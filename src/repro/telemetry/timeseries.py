"""Deterministic windowed time-series over the simulated clock.

The metrics registry (:mod:`repro.telemetry.metrics`) keeps counters as
single running totals — good for end-of-run summaries, useless for
seeing how a serve *evolved*.  This module adds the time dimension:

* :class:`CounterTrack` — a monotonic counter that remembers *when* each
  increment happened (as ``(t, cumulative)`` pairs on the simulated
  clock), so it can later be rolled into per-window event counts and
  rates.
* :class:`~repro.telemetry.metrics.Gauge` — a step-function level
  (queue depth, cache occupancy, slots in use ...) sampled at simulated
  instants, rolled into per-window time-weighted means and maxima.
* :class:`TimeSeriesRecorder` — a get-or-create registry of both track
  kinds sharing one clock, with a byte-identical serialisation.

Everything here is *passive*: tracks never touch the event engine, never
schedule timeouts, and never draw randomness, so attaching them to a
serve cannot perturb its schedule.  Windowing is done once, after the
run, from the recorded tracks — the "fixed-interval sampler" is a pure
function of (events, window width, horizon), which keeps the rolled form
a deterministic function of the run rather than of any sampling process.

Window convention: the horizon ``[0, t_end]`` is cut into
``ceil(t_end / width)`` half-open windows ``[k*w, (k+1)*w)``; the final
window is closed at ``t_end`` so events stamped exactly at the makespan
(terminal dispositions of the last query) are counted, and per-window
counts always sum to the track total.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Gauge

__all__ = [
    "CounterTrack",
    "TimeSeriesRecorder",
    "window_edges",
    "roll_counter",
    "roll_gauge",
]


class CounterTrack:
    """Monotonic counter with a timestamped cumulative history.

    ``inc(t, amount)`` appends ``(t, total_after)``; timestamps must be
    non-decreasing (they come from the simulated clock) and amounts
    non-negative.  Increments at the same instant are kept as separate
    events — rolling only cares about the cumulative value at window
    edges, so coalescing is unnecessary and would lose the event count.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.events: List[Tuple[float, float]] = []

    def inc(self, t: float, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter track {self.name!r} cannot decrease")
        if self.events and t < self.events[-1][0]:
            raise ValueError(
                f"counter track {self.name!r} incremented at {t} after "
                f"{self.events[-1][0]}"
            )
        self.total += amount
        self.events.append((t, self.total))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter_track", "total": self.total}


def window_edges(width: float, t_end: float) -> List[Tuple[float, float]]:
    """``[t0, t1)`` edges covering ``[0, t_end]`` (final window closed).

    Always yields at least one window so an empty serve (``t_end == 0``)
    still rolls to a well-formed, if degenerate, series.
    """
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    if t_end < 0:
        raise ValueError(f"horizon must be non-negative, got {t_end}")
    count = max(1, int(math.ceil(t_end / width)))
    edges = []
    for k in range(count):
        t0 = k * width
        t1 = min((k + 1) * width, t_end) if k == count - 1 else (k + 1) * width
        edges.append((t0, max(t1, t0)))
    return edges


def _window_index(t: float, width: float, count: int) -> int:
    """Window index for an event at ``t`` (horizon events go last)."""
    return min(int(t / width), count - 1)


def roll_counter(
    events: Sequence[Tuple[float, float]], width: float, t_end: float
) -> List[Dict[str, float]]:
    """Roll ``(t, cumulative)`` events into per-window counts and rates.

    Each window reports the number of counted units inside it and the
    rate per simulated second; counts across all windows sum to the
    track total by construction.
    """
    edges = window_edges(width, t_end)
    counts = [0.0] * len(edges)
    prev = 0.0
    for t, cumulative in events:
        counts[_window_index(t, width, len(edges))] += cumulative - prev
        prev = cumulative
    out = []
    for (t0, t1), count in zip(edges, counts):
        span = t1 - t0
        out.append(
            {
                "t0": t0,
                "t1": t1,
                "count": count,
                "rate": count / span if span > 0 else 0.0,
            }
        )
    return out


def roll_gauge(
    samples: Sequence[Tuple[float, float]],
    width: float,
    t_end: float,
    initial: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Roll step-function samples into per-window time-weighted stats.

    The gauge holds each sampled value until the next sample.  Before
    the first sample the level is ``initial``; with ``initial=None`` the
    stretch is *undefined* and excluded from the weighting, and a window
    with no defined time reports ``mean``/``max``/``last`` of ``None``
    rather than inventing a level the run never had.
    """
    edges = window_edges(width, t_end)
    # Build the step function as (start, end, value) segments over the
    # defined portion of [0, t_end].
    segments: List[Tuple[float, float, float]] = []
    if samples:
        if initial is not None and samples[0][0] > 0.0:
            segments.append((0.0, samples[0][0], initial))
        for i, (t, v) in enumerate(samples):
            end = samples[i + 1][0] if i + 1 < len(samples) else max(t_end, t)
            segments.append((t, end, v))
    elif initial is not None:
        segments.append((0.0, t_end, initial))

    out: List[Dict[str, Any]] = []
    for t0, t1 in edges:
        weighted = 0.0
        defined = 0.0
        wmax: Optional[float] = None
        last: Optional[float] = None
        for s0, s1, value in segments:
            lo = max(t0, s0)
            hi = min(t1, s1)
            # Zero-length overlaps still pin max/last for instantaneous
            # windows (t0 == t1) and samples exactly at a window edge.
            if hi < lo:
                continue
            if hi > lo:
                weighted += value * (hi - lo)
                defined += hi - lo
                wmax = value if wmax is None else max(wmax, value)
                last = value
            elif t0 == t1 and s0 <= t0 <= s1:
                wmax = value if wmax is None else max(wmax, value)
                last = value
        out.append(
            {
                "t0": t0,
                "t1": t1,
                "mean": weighted / defined if defined > 0 else last,
                "max": wmax,
                "last": last,
            }
        )
    return out


class TimeSeriesRecorder:
    """Get-or-create registry of counter and gauge tracks on one clock.

    ``clock`` is a zero-argument callable returning simulated seconds
    (typically ``lambda: engine.now``); ``inc``/``set`` stamp through it
    so call sites never pass time explicitly and cannot disagree about
    the clock.
    """

    def __init__(self, clock: Callable[[], float], window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError(f"window width must be positive, got {window}")
        self._clock = clock
        self.window = window
        self._counters: Dict[str, CounterTrack] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> CounterTrack:
        track = self._counters.get(name)
        if track is None:
            track = self._counters[name] = CounterTrack(name)
        return track

    def gauge(self, name: str) -> Gauge:
        track = self._gauges.get(name)
        if track is None:
            track = self._gauges[name] = Gauge(name)
        return track

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(self._clock(), amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(self._clock(), value)

    def counter_names(self) -> List[str]:
        return sorted(self._counters)

    def gauge_names(self) -> List[str]:
        return sorted(self._gauges)

    def point_count(self) -> int:
        """Total recorded points across every track (volume metric)."""
        return sum(len(c.events) for c in self._counters.values()) + sum(
            len(g.samples) for g in self._gauges.values()
        )

    def to_payload(self, t_end: float) -> Dict[str, Any]:
        """Windowed, name-sorted serialisation of every track.

        Two identical runs produce byte-identical payloads: track names
        are sorted, window edges are a pure function of (width, t_end),
        and every number descends from simulated time or counted events.
        """
        counters = {}
        for name in self.counter_names():
            track = self._counters[name]
            counters[name] = {
                "total": track.total,
                "windows": roll_counter(track.events, self.window, t_end),
            }
        gauges = {}
        for name in self.gauge_names():
            track = self._gauges[name]
            gauges[name] = {
                "last": track.last,
                "peak": track.peak,
                "windows": roll_gauge(track.samples, self.window, t_end),
            }
        return {
            "window_s": self.window,
            "t_end": t_end,
            "counters": counters,
            "gauges": gauges,
        }

    def to_json(self, t_end: float) -> str:
        return json.dumps(self.to_payload(t_end), sort_keys=True)
