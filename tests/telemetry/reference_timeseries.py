"""The rolls the time series' counter and gauge tracks are tested against.

A counter track used to keep every increment as a ``(t, cumulative)``
pair and roll the whole history into windows after the run; this module
keeps that walk (and the window grid it used) frozen, so the recorder's
per-window counts can be compared with it byte for byte.  It also keeps
the gauge roll that scanned every segment for every window, so the
one-pass :func:`repro.telemetry.timeseries.roll_gauge` can be.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["cumulative_history", "roll_counter", "roll_gauge", "window_edges"]


def cumulative_history(increments: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``(t, amount)`` increments as the ``(t, total_after)`` pairs the
    track recorded, summed the way it summed them."""
    total, events = 0.0, []
    for t, amount in increments:
        total += amount
        events.append((t, total))
    return events


def window_edges(width: float, t_end: float) -> List[Tuple[float, float]]:
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
    samples: Sequence[Tuple[float, float]], width: float, t_end: float
) -> List[Dict[str, Any]]:
    """Roll step-function samples into per-window time-weighted stats,
    every segment against every window (no level before the first
    sample)."""
    edges = window_edges(width, t_end)
    segments: List[Tuple[float, float, float]] = []
    for i, (t, v) in enumerate(samples):
        end = samples[i + 1][0] if i + 1 < len(samples) else max(t_end, t)
        segments.append((t, end, v))

    out: List[Dict[str, Any]] = []
    for t0, t1 in edges:
        weighted = 0.0
        defined = 0.0
        wmax: Optional[float] = None
        last: Optional[float] = None
        for s0, s1, value in segments:
            lo = max(t0, s0)
            hi = min(t1, s1)
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
