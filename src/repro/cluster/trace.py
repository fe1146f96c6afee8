"""Execution tracing: per-resource busy intervals and ASCII Gantt charts.

Understanding *why* an execution took as long as it did — which device was
the bottleneck, where convoys formed, how the Grace Hash phases tile —
needs more than end-to-end time.  A :class:`Tracer` subscribed to a
simulation's engine records every ``reserve`` event as a
``(resource, start, end)`` interval; :meth:`Tracer.gantt` renders the
intervals as a terminal Gantt chart and :meth:`Tracer.utilisation`
summarises busy fractions.

The tracer is a thin view over the telemetry span store: every recorded
interval is a ``category="resource"`` span in a
:class:`~repro.telemetry.spans.SpanRecorder` (its own private one by
default, the run's shared recorder when the cluster is built with
``telemetry=True``), so Gantt/summary and the span exporters read the
same data.

Intervals on a serial FIFO resource are disjoint by construction of the
reservation calculus — two overlapping intervals mean a reservation
bug.  :meth:`Tracer.record` therefore *detects* overlap and raises
instead of letting utilisation silently exceed and then be clamped to
100%.

Enable with ``ClusterSim(..., trace=True)`` (or with
``engine.subscribe(Tracer())`` before running) — tracing is off by
default because interval lists grow linearly with reservations.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.telemetry.spans import SpanRecorder

__all__ = ["Interval", "Tracer", "OverlapError"]


class OverlapError(ValueError):
    """Two intervals on one serial resource overlap — a reservation bug."""


@dataclass(frozen=True)
class Interval:
    """One busy interval of one resource."""

    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Accumulates busy intervals during a simulation run.

    ``recorder`` is the span store backing the view; omitted, the tracer
    owns a private engineless recorder (the historical standalone
    usage).  An interval that overlaps an earlier one on the same
    resource is an :class:`OverlapError`.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        #: per-resource interval endpoints sorted by start, for overlap
        #: detection in O(log n) per record
        self._sorted: Dict[str, List[Tuple[float, float]]] = {}

    def __call__(self, kind: str, *fields) -> None:
        """Engine subscriber: one interval per ``reserve`` event."""
        if kind == "reserve":
            resource, _now, start, end, _nbytes = fields
            self.record(resource, start, end)

    def record(self, resource: str, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start} > {end}")
        self._check_overlap(resource, start, end)
        self.recorder.record_interval(resource, start, end)

    def _check_overlap(self, resource: str, start: float, end: float) -> None:
        ivals = self._sorted.setdefault(resource, [])
        pos = bisect.bisect_right(ivals, (start, end))
        clash: Optional[Tuple[float, float]] = None
        if pos > 0 and ivals[pos - 1][1] > start:
            clash = ivals[pos - 1]
        elif pos < len(ivals) and ivals[pos][0] < end:
            clash = ivals[pos]
        ivals.insert(pos, (start, end))
        if clash is not None:
            raise OverlapError(
                f"overlapping reservations on serial resource {resource!r}: "
                f"[{start:g}, {end:g}] vs [{clash[0]:g}, {clash[1]:g}]"
            )

    # -- queries ----------------------------------------------------------------

    @property
    def intervals(self) -> List[Interval]:
        """Every recorded interval, in record order."""
        return [
            Interval(s.name, s.start, s.end)
            for s in self.recorder.spans
            if s.category == "resource"
        ]

    @property
    def horizon(self) -> float:
        """Last recorded completion time."""
        return max((iv.end for iv in self.intervals), default=0.0)

    def resources(self) -> List[str]:
        seen: Dict[str, None] = {}
        for iv in self.intervals:
            seen.setdefault(iv.resource, None)
        return list(seen)

    def by_resource(self, resource: str) -> List[Interval]:
        return sorted(
            (iv for iv in self.intervals if iv.resource == resource),
            key=lambda iv: iv.start,
        )

    def busy_time(self, resource: str) -> float:
        """Total busy duration (intervals on one serial resource are
        disjoint — enforced at :meth:`record` — so summation is exact)."""
        return math.fsum(iv.duration for iv in self.by_resource(resource))

    def utilisation(self, resource: str, horizon: Optional[float] = None) -> float:
        """Busy fraction of ``resource`` over ``horizon``.

        Never clamps: with overlap rejected at :meth:`record`, a ratio
        above 1.0 (beyond float noise) cannot arise from recorded data,
        so one slipping through anyway is an internal error and raises.
        """
        h = horizon if horizon is not None else self.horizon
        if h <= 0:
            return 0.0
        ratio = self.busy_time(resource) / h
        if ratio > 1.0 + 1e-9:
            raise OverlapError(
                f"utilisation of {resource!r} is {ratio:.6f} > 1 over "
                f"horizon {h:g}s — busy time exceeds elapsed time"
            )
        return min(1.0, ratio)  # shave float noise only

    # -- rendering ----------------------------------------------------------------

    def gantt(self, width: int = 72, resources: Optional[List[str]] = None) -> str:
        """ASCII Gantt chart: one row per resource, '#' where busy.

        A cell is drawn busy when any part of its time slice overlaps a
        recorded interval, so very short reservations remain visible.
        """
        if width <= 0:
            raise ValueError("width must be positive")
        horizon = self.horizon
        names = resources if resources is not None else self.resources()
        label_w = max((len(n) for n in names), default=0)
        lines = []
        for name in names:
            cells = [" "] * width
            if horizon > 0:
                for iv in self.by_resource(name):
                    # clamp into [0, width): an interval touching the exact
                    # horizon (zero-length included) still gets a cell
                    lo = min(int(iv.start / horizon * width), width - 1)
                    hi = min(max(int(iv.end / horizon * width), lo), width - 1)
                    for c in range(lo, hi + 1):
                        cells[c] = "#"
            util = self.utilisation(name)
            lines.append(f"{name.rjust(label_w)} |{''.join(cells)}| {util:5.1%}")
        # the 0 tick sits under the first cell, inside the bars
        scale = f"{'':>{label_w}}  0{'.' * (width - 2)}{horizon:.3g}s"
        lines.append(scale)
        return "\n".join(lines)

    def summary(self) -> str:
        """Per-resource busy time and utilisation, sorted by busy time."""
        horizon = self.horizon
        rows = sorted(
            ((self.busy_time(n), n) for n in self.resources()), reverse=True
        )
        lines = [f"horizon: {horizon:.3f}s"]
        for busy, name in rows:
            lines.append(f"  {name:<14} busy {busy:8.3f}s  ({busy / horizon:5.1%})"
                         if horizon else f"  {name:<14} busy {busy:8.3f}s")
        return "\n".join(lines)
