"""The resource views ``repro.telemetry.export`` is tested against.

A frozen copy of the rendering ``cluster.trace.Tracer`` did before its
views became export functions over the hub's resource spans: its
interval queries (record order, per-resource sort by start, ``fsum``
busy time, utilisation that raises instead of clamping), its Gantt chart
and its busy summary.  Kept because it is the byte-level oracle for
``gantt`` and ``resource_summary`` — what ``examples/cluster_trace.py``
and ``repro trace`` print — and shares nothing with the one grouping
they read.  Not to be tidied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.spans import OverlapError

__all__ = ["ReferenceTracer"]


@dataclass(frozen=True)
class Interval:
    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class ReferenceTracer:
    """The old view over ``(resource, start, end)`` intervals, given in
    record order."""

    def __init__(self, intervals: Sequence[Tuple[str, float, float]]) -> None:
        self.intervals = [Interval(*iv) for iv in intervals]

    @property
    def horizon(self) -> float:
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
        return math.fsum(iv.duration for iv in self.by_resource(resource))

    def utilisation(self, resource: str, horizon: Optional[float] = None) -> float:
        h = horizon if horizon is not None else self.horizon
        if h <= 0:
            return 0.0
        ratio = self.busy_time(resource) / h
        if ratio > 1.0 + 1e-9:
            raise OverlapError(
                f"utilisation of {resource!r} is {ratio:.6f} > 1 over "
                f"horizon {h:g}s — busy time exceeds elapsed time"
            )
        return min(1.0, ratio)

    def gantt(self, width: int = 72, resources: Optional[List[str]] = None) -> str:
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
                    lo = min(int(iv.start / horizon * width), width - 1)
                    hi = min(max(int(iv.end / horizon * width), lo), width - 1)
                    for c in range(lo, hi + 1):
                        cells[c] = "#"
            util = self.utilisation(name)
            lines.append(f"{name.rjust(label_w)} |{''.join(cells)}| {util:5.1%}")
        scale = f"{'':>{label_w}}  0{'.' * (width - 2)}{horizon:.3g}s"
        lines.append(scale)
        return "\n".join(lines)

    def summary(self) -> str:
        horizon = self.horizon
        rows = sorted(
            ((self.busy_time(n), n) for n in self.resources()), reverse=True
        )
        lines = [f"horizon: {horizon:.3f}s"]
        for busy, name in rows:
            lines.append(f"  {name:<14} busy {busy:8.3f}s  ({busy / horizon:5.1%})"
                         if horizon else f"  {name:<14} busy {busy:8.3f}s")
        return "\n".join(lines)
