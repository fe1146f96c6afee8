"""Deterministic windowed time-series over the simulated clock.

The metrics registry (:mod:`repro.telemetry.metrics`) keeps counters as
single running totals — good for end-of-run summaries, useless for
seeing how a serve *evolved*.  This module adds the time dimension:

* counter tracks — whole events counted per window on the simulated
  clock as they happen, so a track rolls into per-window event counts
  and rates without keeping its history;
* :class:`~repro.telemetry.metrics.Gauge` — a step-function level
  (queue depth, cache occupancy, slots in use ...) sampled at simulated
  instants, rolled into per-window time-weighted means and maxima in
  one pass over windows and samples together (:func:`roll_gauge`);
* :class:`TimeSeriesRecorder` — a get-or-create registry of both track
  kinds sharing one clock, with a byte-identical serialisation.

Everything here is *passive*: tracks never touch the event engine, never
schedule timeouts, and never draw randomness, so attaching them to a
serve cannot perturb its schedule.  The rolled form is a pure function
of (events, window width, horizon).

Window convention: the horizon ``[0, t_end]`` is cut into
``ceil(t_end / width)`` half-open windows ``[k*w, (k+1)*w)``; the final
window is closed at ``t_end`` so events stamped exactly at the makespan
(terminal dispositions of the last query) are counted.  Windows past
the horizon join its final one (:func:`horizon_counts`, the one place
that rule lives), so per-window counts always sum to the track total.
A negative time, or one past :data:`MAX_WINDOWS` windows, is refused
(:func:`window_index`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Gauge

__all__ = [
    "MAX_WINDOWS",
    "TimeSeriesRecorder",
    "counter_windows",
    "horizon_counts",
    "window_edges",
    "window_index",
    "roll_gauge",
]

#: the most windows a horizon is cut into
MAX_WINDOWS = 100_000


def _check_width(width: float) -> None:
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"window width must be positive and finite, got {width}")


def window_index(t: float, width: float) -> int:
    """``int(t / width)``, refused for a negative time and past
    :data:`MAX_WINDOWS` (NaN included)."""
    index = t / width
    if not index <= MAX_WINDOWS:
        raise ValueError(f"window width {width} puts time {t} past the {MAX_WINDOWS}-window cap")
    if index < 0:
        raise ValueError(f"time {t} is before the window grid starts at 0")
    return int(index)


def horizon_counts(counts: Sequence[int], windows: int) -> List[int]:
    """Per-window ``counts`` cut to a horizon of ``windows`` windows:
    windows never reached count zero, and every window past the
    horizon's last joins it."""
    head = list(counts[: windows - 1])
    return head + [0] * (windows - 1 - len(head)) + [sum(counts[windows - 1 :])]


def counter_windows(edges, counts) -> List[Dict[str, float]]:
    """Per-window ``count`` rows, with the rate per simulated second."""
    return [
        {"t0": t0, "t1": t1, "count": float(c), "rate": c / (t1 - t0) if t1 > t0 else 0.0}
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
    samples: Sequence[Tuple[float, float]], width: float, t_end: float
) -> List[Dict[str, Any]]:
    """Roll step-function samples (in time order) into per-window
    time-weighted stats.

    The gauge holds each sampled value until the next sample, the last
    one to the horizon.  Before the first sample the level is
    *undefined* and excluded from the weighting, and a window with no
    defined time reports ``mean``/``max``/``last`` of ``None`` rather
    than inventing a level the run never had.  Windows and segments are
    walked together, so the cost is linear in windows plus samples.
    """
    edges = window_edges(width, t_end)
    # the step function as (start, end, value) segments, ends in order
    ends = [t for t, _ in samples[1:]]
    if samples:
        ends.append(max(t_end, samples[-1][0]))
    segments = [(t, end, value) for (t, value), end in zip(samples, ends)]
    out: List[Dict[str, Any]] = []
    first = 0
    for t0, t1 in edges:
        weighted = 0.0
        defined = 0.0
        wmax: Optional[float] = None
        last: Optional[float] = None
        i = first
        while i < len(segments) and segments[i][0] <= t1:
            s0, s1, value = segments[i]
            i += 1
            lo = max(t0, s0)
            hi = min(t1, s1)
            if hi > lo:
                weighted += value * (hi - lo)
                defined += hi - lo
            # a zero-length overlap still pins max/last for an
            # instantaneous window (t0 == t1)
            elif not (t0 == t1 and s0 <= t0 <= s1):
                continue
            wmax = value if wmax is None else max(wmax, value)
            last = value
        # a segment ending before this window ends overlaps no later window
        while first < len(segments) and segments[first][1] < t1:
            first += 1
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
    the clock.  A counter keeps one whole count per window, up to the
    newest window it reached.
    """

    def __init__(self, clock: Callable[[], float], window: float = 1.0) -> None:
        _check_width(window)
        self._clock = clock
        self.window = window
        self._counts: Dict[str, List[int]] = {}
        self._gauges: Dict[str, Gauge] = {}

    def gauge(self, name: str) -> Gauge:
        track = self._gauges.get(name)
        if track is None:
            track = self._gauges[name] = Gauge(name)
        return track

    def inc(self, name: str) -> None:
        """Count one ``name`` event in the clock's window."""
        k = window_index(self._clock(), self.window)
        counts = self._counts.setdefault(name, [])
        if k >= len(counts):
            counts.extend([0] * (k + 1 - len(counts)))
        counts[k] += 1

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(self._clock(), value)

    def counter_names(self) -> List[str]:
        return sorted(self._counts)

    def gauge_names(self) -> List[str]:
        return sorted(self._gauges)

    def point_count(self) -> int:
        """Total recorded points across every track (volume metric)."""
        return sum(map(sum, self._counts.values())) + sum(
            len(g.samples) for g in self._gauges.values()
        )

    def to_payload(self, t_end: float) -> Dict[str, Any]:
        """Windowed, name-sorted serialisation of every track.

        Two identical runs produce byte-identical payloads: track names
        are sorted, window edges are a pure function of (width, t_end),
        and every number descends from simulated time or counted events.
        """
        edges = window_edges(self.window, t_end)
        counters = {}
        for name in self.counter_names():
            counts = horizon_counts(self._counts[name], len(edges))
            counters[name] = {
                "total": float(sum(counts)),
                "windows": counter_windows(edges, counts),
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
