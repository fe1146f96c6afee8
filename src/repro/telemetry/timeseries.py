"""Deterministic windowed time-series over the simulated clock.

The metrics registry (:mod:`repro.telemetry.metrics`) keeps counters as
single running totals — good for end-of-run summaries, useless for
seeing how a serve *evolved*.  This module adds the time dimension:

* :class:`CounterTrack` — a monotonic counter folded, increment by
  increment, into per-window sums on the simulated clock, so it rolls
  into per-window event counts and rates without keeping its history.
* :class:`~repro.telemetry.metrics.Gauge` — a step-function level
  (queue depth, cache occupancy, slots in use ...) sampled at simulated
  instants, rolled into per-window time-weighted means and maxima.
* :class:`TimeSeriesRecorder` — a get-or-create registry of both track
  kinds sharing one clock, with a byte-identical serialisation.

Everything here is *passive*: tracks never touch the event engine, never
schedule timeouts, and never draw randomness, so attaching them to a
serve cannot perturb its schedule.  The rolled form is a pure function
of (increments, window width, horizon): a counter's window sums are the
same float additions, in the same order, whether they are made as the
increments arrive or after the run.

Window convention: the horizon ``[0, t_end]`` is cut into
``ceil(t_end / width)`` half-open windows ``[k*w, (k+1)*w)``; the final
window is closed at ``t_end`` so events stamped exactly at the makespan
(terminal dispositions of the last query) are counted, and per-window
counts always sum to the track total.  A time past :data:`MAX_WINDOWS`
windows is refused (:func:`window_index`).
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Gauge

__all__ = [
    "MAX_WINDOWS",
    "CounterTrack",
    "TimeSeriesRecorder",
    "counter_windows",
    "window_edges",
    "window_index",
    "roll_gauge",
]

#: the most windows a horizon is cut into
MAX_WINDOWS = 100_000


class CounterTrack:
    """Monotonic counter folded into per-window sums as it is incremented.

    ``inc(t, amount)`` adds the increment's delta (``total_after -
    total_before``) to the running sum of window ``int(t / width)``;
    timestamps must be finite, non-negative and non-decreasing (they
    come from the simulated clock) and amounts finite and non-negative.
    Besides one sum per window up to the newest, the track keeps one
    more float: the previous window's sum continued by the newest
    window's deltas, in order.  That is the final window's count when
    the newest window starts exactly at the horizon (increments stamped
    at ``t_end = k * width`` belong to the window closed at ``t_end``),
    so every rolled count is the same float as a walk over the whole
    increment history.  Windows wholly past a horizon join its final
    window as sums, the same float too whenever the amounts are whole
    numbers (every track a serve keeps counts by one).  ``increments``
    counts the ``inc`` calls.
    """

    def __init__(self, name: str, width: float = 1.0) -> None:
        _check_width(width)
        self.name = name
        self.width = width
        self.total = 0.0
        self.increments = 0
        self._last_t = 0.0
        self._sums: List[float] = []
        self._carry = 0.0

    def inc(self, t: float, amount: float = 1.0) -> None:
        # chained comparisons are False for NaN, so these refuse it too
        if not 0.0 <= amount < math.inf:
            raise ValueError(
                f"counter track {self.name!r}: amount must be finite and "
                f"non-negative, got {amount}"
            )
        if not self._last_t <= t < math.inf:
            raise ValueError(
                f"counter track {self.name!r} incremented at {t} after {self._last_t}"
            )
        before = self.total
        k = window_index(t, self.width)
        total = self.total = before + amount
        sums = self._sums
        if k >= len(sums):
            sums.extend([0.0] * (k + 1 - len(sums)))
            self._carry = sums[k - 1] if k else 0.0
        delta = total - before
        sums[k] += delta
        self._carry += delta
        self._last_t = t
        self.increments += 1

    def windows(self, t_end: float) -> List[Dict[str, float]]:
        """Per-window counts and rates over ``[0, t_end]``.

        Each window reports the number of counted units inside it and the
        rate per simulated second; counts across all windows sum to the
        track total by construction.
        """
        edges = window_edges(self.width, t_end)
        count, sums = len(edges), self._sums
        counts = sums[:count] + [0.0] * (count - len(sums))
        if len(sums) == count + 1:
            counts[-1] = self._carry
        else:
            # windows past the horizon's last: added window by window
            for value in sums[count:]:
                counts[-1] += value
        return counter_windows(edges, counts)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter_track", "total": self.total}


def _check_width(width: float) -> None:
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"window width must be positive and finite, got {width}")


def window_index(t: float, width: float) -> int:
    """``int(t / width)``, refused past :data:`MAX_WINDOWS` (NaN included)."""
    if not t / width <= MAX_WINDOWS:
        raise ValueError(f"window width {width} puts time {t} past the {MAX_WINDOWS}-window cap")
    return int(t / width)


def counter_windows(edges, counts) -> List[Dict[str, float]]:
    """Per-window ``count`` rows, with the rate per simulated second."""
    return [
        {"t0": t0, "t1": t1, "count": c, "rate": c / (t1 - t0) if t1 > t0 else 0.0}
        for (t0, t1), c in zip(edges, counts)
    ]


def window_edges(width: float, t_end: float) -> List[Tuple[float, float]]:
    """``[t0, t1)`` edges covering ``[0, t_end]`` (final window closed).

    Always yields at least one window so an empty serve (``t_end == 0``)
    still rolls to a well-formed, if degenerate, series.
    """
    _check_width(width)
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"horizon must be finite and non-negative, got {t_end}")
    window_index(t_end, width)
    count = max(1, int(math.ceil(t_end / width)))
    edges = []
    for k in range(count):
        t0 = k * width
        t1 = min((k + 1) * width, t_end) if k == count - 1 else (k + 1) * width
        edges.append((t0, max(t1, t0)))
    return edges


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
        _check_width(window)
        self._clock = clock
        self.window = window
        self._counters: Dict[str, CounterTrack] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> CounterTrack:
        track = self._counters.get(name)
        if track is None:
            track = self._counters[name] = CounterTrack(name, self.window)
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
        return sum(c.increments for c in self._counters.values()) + sum(
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
                "windows": track.windows(t_end),
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
