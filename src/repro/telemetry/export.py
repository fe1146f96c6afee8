"""Trace exporters: Chrome trace-event JSON, a deterministic text dump,
and the resource views (an ASCII Gantt chart and a busy summary).

The JSON exporter emits the Chrome trace-event format (the ``JSON object
format``: a top-level ``traceEvents`` array), loadable in Perfetto /
``chrome://tracing``.  Each simulated node becomes a *process* (pid) and
each activity track on that node a *thread* (tid), so concurrent
activities never stack on one lane:

* causal spans → complete events (``ph="X"``) with their attributes in
  ``args``;
* ``follows_from`` edges → flow event pairs (``ph="s"`` / ``ph="f"``),
  drawing cross-node causality arrows;
* gauges → counter events (``ph="C"``) under a dedicated ``metrics``
  process;
* resource-occupancy spans → one lane per resource under the owning
  node's process.

Timestamps are simulated seconds scaled to microseconds and rounded to
3 decimals (sub-nanosecond), so the serialised file is deterministic.
The text dump is the test-friendly form: the full span tree, resource
summaries, and every metric, all name-sorted.

:func:`gantt` and :func:`resource_summary` read the resource spans
grouped once per resource (:func:`resource_intervals`).  The recorder
refuses overlap on a serial resource, so utilisation above 1 cannot come
from recorded data and raises :class:`~repro.telemetry.spans.OverlapError`
instead of being clamped.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import Telemetry
from repro.telemetry.spans import OverlapError, Span

__all__ = [
    "chrome_trace", "write_chrome_trace", "text_dump",
    "resource_intervals", "gantt", "resource_summary",
]

_NODE_ORDER = {"global": 0, "storage": 1, "compute": 2}
_TRAILING_NUM = re.compile(r"^(.*?)(\d+)$")


def _node_sort_key(node: str) -> Tuple[int, str, int]:
    m = _TRAILING_NUM.match(node)
    stem, num = (m.group(1), int(m.group(2))) if m else (node, -1)
    return (_NODE_ORDER.get(stem, 3), stem, num)


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _span_node(tel: Telemetry, span: Span) -> str:
    if span.category == "resource":
        return tel.node_of(span.name)
    return span.node


def chrome_trace(tel: Telemetry) -> Dict[str, Any]:
    """Render the telemetry of one run as a Chrome trace-event object."""
    spans = [s for s in tel.recorder.spans if s.end is not None]
    # pid per node, tid per (node, track) — both in deterministic order.
    nodes = sorted({_span_node(tel, s) for s in spans}, key=_node_sort_key)
    pid_of = {node: i + 1 for i, node in enumerate(nodes)}
    tracks = sorted(
        {(_span_node(tel, s), s.track) for s in spans},
        key=lambda nt: (_node_sort_key(nt[0]), nt[1]),
    )
    tid_of: Dict[Tuple[str, str], int] = {}
    per_node_count: Dict[str, int] = {}
    for node, track in tracks:
        per_node_count[node] = per_node_count.get(node, 0) + 1
        tid_of[(node, track)] = per_node_count[node]

    events: List[Dict[str, Any]] = []
    for node in nodes:
        pid = pid_of[node]
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": node},
            }
        )
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for node, track in tracks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid_of[node],
                "tid": tid_of[(node, track)],
                "args": {"name": track},
            }
        )

    flow_id = 0
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        node = _span_node(tel, span)
        pid, tid = pid_of[node], tid_of[(node, span.track)]
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.end - span.start),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for src_id in span.follows_from:
            src = tel.recorder.get(src_id)
            if src.end is None:
                continue
            src_node = _span_node(tel, src)
            flow_id += 1
            ts = _us(span.start)
            events.append(
                {
                    "name": "follows-from",
                    "cat": "flow",
                    "ph": "s",
                    "id": flow_id,
                    "ts": min(ts, _us(src.end)),
                    "pid": pid_of[src_node],
                    "tid": tid_of[(src_node, src.track)],
                }
            )
            events.append(
                {
                    "name": "follows-from",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                }
            )

    metrics_pid = len(nodes) + 1
    gauge_names = [
        name
        for name in tel.metrics.names()
        if tel.metrics.get(name).to_dict()["type"] == "gauge"
    ]
    if gauge_names:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": metrics_pid,
                "tid": 0,
                "args": {"name": "metrics"},
            }
        )
        for name in gauge_names:
            for t, value in tel.metrics.get(name).samples:
                events.append(
                    {
                        "name": name,
                        "cat": "metric",
                        "ph": "C",
                        "ts": _us(t),
                        "pid": metrics_pid,
                        "args": {"value": value},
                    }
                )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": tel.label,
            "clock": "simulated-seconds-as-microseconds",
            "metrics": tel.metrics.to_dict(),
        },
    }


def write_chrome_trace(tel: Telemetry, path) -> None:
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tel), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fmt_attrs(span: Span) -> str:
    parts = [f"{k}={span.attrs[k]}" for k in sorted(span.attrs)]
    return (" {" + ", ".join(parts) + "}") if parts else ""


def text_dump(tel: Telemetry) -> str:
    """Deterministic plain-text rendering of spans, resources, metrics."""
    rec = tel.recorder
    lines: List[str] = [f"trace {tel.label or '(unlabelled)'}"]

    lines.append("== spans ==")
    causal_roots = sorted(
        (s for s in rec.roots() if s.category != "resource"),
        key=lambda s: (s.start, s.span_id),
    )
    for root in causal_roots:
        for depth, span in rec.iter_tree(root):
            dur = "open" if span.end is None else f"{span.duration:.9g}s"
            lines.append(
                f"{'  ' * depth}{span.name} [{span.category}] "
                f"node={span.node} start={span.start:.9g} dur={dur}"
                f"{_fmt_attrs(span)}"
            )

    per = resource_intervals(tel)
    if per:
        lines.append("== resources ==")
        for name in sorted(per):
            lines.append(
                f"{name}: intervals={len(per[name])} busy={_busy(per[name]):.9g}s"
            )

    if len(tel.metrics):
        lines.append("== metrics ==")
        for name in tel.metrics.names():
            d = tel.metrics.get(name).to_dict()
            kind = d["type"]
            if kind == "counter":
                lines.append(f"{name} counter value={d['value']:.9g}")
            elif kind == "gauge":
                lines.append(
                    f"{name} gauge last={d['last']} peak={d['peak']} "
                    f"samples={len(d['samples'])}"
                )
            else:
                lines.append(
                    f"{name} histogram count={d['count']} "
                    f"total={d['total']:.9g}"
                )
    return "\n".join(lines) + "\n"


# -- resource views ------------------------------------------------------------


def resource_intervals(tel: Telemetry) -> Dict[str, List[Span]]:
    """The resource-occupancy spans grouped per resource: resources in
    the order they were first reserved, each one's spans in record order
    (which is start order: the recorder refuses an interval that starts
    before the previous one on its resource ended)."""
    per: Dict[str, List[Span]] = {}
    for span in tel.recorder.spans:
        if span.category == "resource":
            per.setdefault(span.name, []).append(span)
    return per


def _busy(spans: List[Span]) -> float:
    # fsum is exactly rounded, so the result does not depend on span order
    return math.fsum(s.end - s.start for s in spans)


def _horizon(per: Dict[str, List[Span]]) -> float:
    return max((s.end for spans in per.values() for s in spans), default=0.0)


def _utilisation(name: str, busy: float, horizon: float) -> float:
    """Busy fraction over ``horizon``; a ratio above 1.0 beyond float noise
    means busy time exceeds elapsed time, and raises."""
    if horizon <= 0:
        return 0.0
    ratio = busy / horizon
    if ratio > 1.0 + 1e-9:
        raise OverlapError(
            f"utilisation of {name!r} is {ratio:.6f} > 1 over "
            f"horizon {horizon:g}s — busy time exceeds elapsed time"
        )
    return min(1.0, ratio)  # shave float noise only


def gantt(
    tel: Telemetry, width: int = 72, resources: Optional[Sequence[str]] = None
) -> str:
    """ASCII Gantt chart: one row per resource (``resources``, or each in
    the order first reserved), '#' where busy, then its utilisation.  A
    cell is busy when any part of its time slice overlaps an interval, so
    very short reservations remain visible."""
    if width <= 0:
        raise ValueError("width must be positive")
    per = resource_intervals(tel)
    horizon = _horizon(per)
    names = list(per) if resources is None else resources
    label_w = max((len(n) for n in names), default=0)
    lines = []
    for name in names:
        spans = per.get(name, [])
        cells = [" "] * width
        if horizon > 0:
            for span in spans:
                # clamp into [0, width): an interval touching the exact
                # horizon (zero-length included) still gets a cell
                lo = min(int(span.start / horizon * width), width - 1)
                hi = min(int(span.end / horizon * width), width - 1)
                for c in range(lo, hi + 1):
                    cells[c] = "#"
        util = _utilisation(name, _busy(spans), horizon)
        lines.append(f"{name.rjust(label_w)} |{''.join(cells)}| {util:5.1%}")
    # the 0 tick sits under the first cell, inside the bars
    lines.append(f"{'':>{label_w}}  0{'.' * (width - 2)}{horizon:.3g}s")
    return "\n".join(lines)


def resource_summary(tel: Telemetry) -> str:
    """Per-resource busy time and utilisation, busiest first."""
    per = resource_intervals(tel)
    horizon = _horizon(per)
    lines = [f"horizon: {horizon:.3f}s"]
    for busy, name in sorted(((_busy(s), n) for n, s in per.items()), reverse=True):
        util = f"  ({_utilisation(name, busy, horizon):5.1%})" if horizon else ""
        lines.append(f"  {name:<14} busy {busy:8.3f}s{util}")
    return "\n".join(lines)
