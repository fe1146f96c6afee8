"""``repro top`` — render a served workload's observability artifacts.

The dashboard is a *pure* function of two files the server already
writes: the report JSON (``repro serve --json-out``, optionally carrying
an ``observability`` section when served with ``--observe``) and the
structured ops log (``--oplog-out``).  Nothing here re-runs the
simulation or touches the engine: :func:`build_dashboard` reshapes the
payload into named panels, and :func:`render_dashboard` lays those
panels out as aligned text with ASCII sparklines.  Both are
deterministic — same artifacts in, byte-identical dashboard out — so
the rendering is testable and diffable like every other artifact in
this repo.

Panels
------

``meta``
    Serve-wide header: policy, slots, query count, makespan, goodput.
``tenants``
    Per-tenant completed-latency percentiles (p50/p99 from the exact
    stats in the report) next to the disposition split.
``timelines``
    Windowed gauge tracks from the observability section — queue depth,
    slot utilisation, cache occupancy — plus the derived per-window
    cache hit rate, each as a sparkline over ``[0, t_end]``.
``slo``
    Per-tenant error-budget table: objective, good/bad counts, budget
    consumed, alert count.
``alerts``
    Burn-rate alert history (fire/clear times, short/long burns).
``oplog``
    Event histogram — from the ``.jsonl`` when given, else from the
    summary embedded in the report.
``reuse``
    Cache-reuse observatory — per-window working-set/hit-rate
    sparklines and the what-if miss-ratio curve at alternative
    capacities.  Degrades to a one-line notice when the report was
    served with ``--no-reuse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.validate import check_leaf_types, validate_observability, validate_oplog

__all__ = [
    "SPARK_LEVELS",
    "build_dashboard",
    "load_oplog",
    "load_report",
    "render_dashboard",
    "sparkline",
]

#: glyphs from empty to full; index = value scaled against the track max
SPARK_LEVELS = " .:-=+*#%@"


#: top-level sections of a report payload the panels read, by JSON type
_REPORT_SHAPE = (
    ("queries", list),
    ("tenants", dict),
    ("dispositions", dict),
    ("cache", dict),
)

#: leaves outside the ``observability`` section the panels count with
_REPORT_LEAVES = (("dispositions.per_tenant.*.*", (int,)),)


def load_report(path: str) -> Dict[str, Any]:
    """Read and shape-check a ``repro serve --json-out`` payload.

    The one loader ``repro top`` and ``repro advise`` share: a file that
    is not a server report, or whose ``observability`` section violates
    the schema ``python -m repro.telemetry.validate`` checks, raises
    ``ValueError`` naming the path and the first violation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: not a server report ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a server report (not a JSON object)")
    for key, kind in _REPORT_SHAPE:
        if not isinstance(doc.get(key), kind):
            raise ValueError(
                f"{path}: not a server report (no {key!r} {kind.__name__})"
            )
    violations: List[str] = []
    check_leaf_types(doc, _REPORT_LEAVES, violations)
    if "observability" in doc:
        violations += validate_observability(doc["observability"])
    if violations:
        raise ValueError(f"{path}: {violations[0]}")
    return doc


def load_oplog(path: str) -> List[Dict[str, Any]]:
    """Read a ``repro serve --oplog-out`` JSONL file; a line that is not
    JSON or a log that breaks the schema (:func:`validate_oplog`) is a
    ``ValueError`` naming the file and the first violation."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: line {lineno} unparseable ({exc})")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
    violations = validate_oplog(records)
    if violations:
        raise ValueError(f"{path}: {violations[0]}")
    return records


def sparkline(values: Sequence[Optional[float]], width: int = 0) -> str:
    """Scale ``values`` against their max into :data:`SPARK_LEVELS` glyphs.

    ``None`` values (windows before the first gauge sample) render as
    spaces.  An all-zero or empty track is a flat run of the lowest
    glyph — the scale is per-track, so shapes are comparable within a
    line, not across lines.
    """
    vals = list(values)
    if width and len(vals) > width:
        # resample by picking evenly spaced windows (deterministic)
        step = len(vals) / width
        vals = [vals[int(i * step)] for i in range(width)]
    peak = max((v for v in vals if v is not None), default=0.0)
    out = []
    for v in vals:
        if v is None:
            out.append(" ")
        elif peak <= 0:
            out.append(SPARK_LEVELS[0])
        else:
            idx = int(v / peak * (len(SPARK_LEVELS) - 1))
            out.append(SPARK_LEVELS[max(0, min(idx, len(SPARK_LEVELS) - 1))])
    return "".join(out)


def _gauge_means(obs: Dict[str, Any], name: str) -> List[Optional[float]]:
    track = obs.get("timeseries", {}).get("gauges", {}).get(name)
    if not track:
        return []
    return [w.get("mean") for w in track.get("windows", [])]


def _tenant_rows(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    latency = payload.get("tenants", {}).get("latency", {})
    dispositions = payload.get("dispositions", {}).get("per_tenant", {})
    rows = []
    for tenant in sorted(set(latency) | set(dispositions)):
        stats = latency.get(tenant, {})
        disp = dispositions.get(tenant, {})
        rows.append({
            "tenant": tenant,
            "completed": int(disp.get("completed", 0)),
            "deadline_exceeded": int(disp.get("deadline_exceeded", 0)),
            "shed": int(disp.get("shed", 0)),
            "failed": int(disp.get("failed", 0)),
            "p50": stats.get("p50"),
            "p99": stats.get("p99"),
            "mean": stats.get("mean"),
        })
    return rows


def build_dashboard(
    payload: Dict[str, Any],
    oplog_records: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Reshape a report payload (+ optional oplog) into dashboard panels.

    The result is JSON-ready with sorted-key determinism left to the
    caller's ``json.dumps``; every panel is present even when its source
    section is absent (empty lists / ``None``), so consumers can rely on
    the shape.
    """
    obs = payload.get("observability")
    dash: Dict[str, Any] = {
        "meta": {
            "policy": payload.get("policy"),
            "slots": payload.get("slots"),
            "queries": payload.get("num_queries"),
            "makespan_s": payload.get("makespan_s"),
            "goodput_qps": payload.get("goodput_qps"),
            "cache_hit_rate": payload.get("cache", {}).get("hit_rate"),
            "observed": obs is not None,
        },
        "tenants": _tenant_rows(payload),
        "timelines": {},
        "slo": {},
        "alerts": [],
        "oplog": {},
        "reuse": None,
    }
    if obs is not None:
        ts = obs.get("timeseries", {})
        timelines: Dict[str, Any] = {
            "window_s": ts.get("window_s"),
            "t_end": ts.get("t_end"),
            "queue_depth": _gauge_means(obs, "server.queue_depth"),
            "inflight": _gauge_means(obs, "server.inflight"),
            "slot_utilization": _gauge_means(obs, "server.slot_utilization"),
        }
        hit_windows = obs.get("derived", {}).get("cache_hit_rate", [])
        timelines["cache_hit_rate"] = [w.get("rate") for w in hit_windows]
        dash["timelines"] = timelines
        dash["slo"] = obs.get("slo", {})
        dash["alerts"] = list(obs.get("alerts", []))
        dash["oplog"] = dict(obs.get("oplog", {}).get("events", {}))
        reuse = obs.get("reuse")
        if reuse is not None:
            windows = reuse.get("working_set", {}).get("windows", [])
            dash["reuse"] = {
                "capacity_bytes": reuse.get("capacity_bytes"),
                "policy": reuse.get("policy"),
                "trace": dict(reuse.get("trace", {})),
                "hit_rate": [
                    (w["hits"] / w["accesses"] if w["accesses"] else None)
                    for w in windows
                ],
                "working_set_bytes": [
                    float(w["distinct_bytes"]) for w in windows
                ],
                "mrc": list(reuse.get("mrc", {}).get("global", [])),
            }
    if oplog_records is not None:
        counts: Dict[str, int] = {}
        for rec in oplog_records:
            ev = str(rec.get("event"))
            counts[ev] = counts.get(ev, 0) + 1
        dash["oplog"] = {k: counts[k] for k in sorted(counts)}
    return dash


def _fmt(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _panel(title: str, lines: Sequence[str]) -> List[str]:
    return [f"== {title} " + "=" * max(0, 58 - len(title)), *lines, ""]


def _aligned(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        out.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return out


def render_dashboard(dash: Dict[str, Any], width: int = 60) -> str:
    """Lay the panels out as deterministic aligned text."""
    meta = dash["meta"]
    lines: List[str] = []
    lines += _panel("serve", [
        f"policy {meta['policy']}   slots {meta['slots']}   "
        f"queries {meta['queries']}",
        f"makespan {_fmt(meta['makespan_s'])}s   "
        f"goodput {_fmt(meta['goodput_qps'], 2)} q/s   "
        f"cache hit rate {_fmt(meta['cache_hit_rate'], 3)}",
    ])
    rows = [
        [
            t["tenant"], str(t["completed"]), str(t["deadline_exceeded"]),
            str(t["shed"]), str(t["failed"]),
            _fmt(t["p50"]), _fmt(t["p99"]),
        ]
        for t in dash["tenants"]
    ]
    lines += _panel("tenants", _aligned(
        ["tenant", "ok", "ddl", "shed", "fail", "p50 (s)", "p99 (s)"], rows,
    ))
    if not meta["observed"]:
        lines += _panel("timelines", ["observability: disabled for this serve"])
    else:
        tl = dash["timelines"]
        spark_rows = []
        for name in ("queue_depth", "inflight", "slot_utilization",
                     "cache_hit_rate"):
            track = tl.get(name, [])
            peak = max((v for v in track if v is not None), default=0.0)
            spark_rows.append(
                (name, sparkline(track, width), peak)
            )
        body = [
            f"window {_fmt(tl.get('window_s'))}s   "
            f"horizon {_fmt(tl.get('t_end'))}s"
        ]
        label_w = max(len(n) for n, _, _ in spark_rows)
        for name, spark, peak in spark_rows:
            body.append(f"{name.rjust(label_w)} |{spark}| peak {_fmt(peak, 3)}")
        lines += _panel("timelines", body)
        slo_rows = []
        for tenant in sorted(dash["slo"]):
            s = dash["slo"][tenant]
            obj = s.get("objective", {})
            slo_rows.append([
                tenant,
                _fmt(obj.get("availability"), 3),
                _fmt(obj.get("latency_target"), 4),
                str(s.get("good")), str(s.get("bad")),
                _fmt(s.get("budget_consumed"), 3),
                str(s.get("alerts")),
            ])
        lines += _panel("error budget", _aligned(
            ["tenant", "target", "lat SLO", "good", "bad", "burned", "alerts"],
            slo_rows,
        ) if slo_rows else ["no SLO objectives declared"])
        alert_lines = []
        for a in dash["alerts"]:
            cleared = (
                f"cleared {_fmt(a.get('cleared_at'))}"
                if a.get("cleared_at") is not None else "still firing"
            )
            alert_lines.append(
                f"{a.get('tenant')}: fired {_fmt(a.get('fired_at'))}  "
                f"burn {_fmt(a.get('short_burn'), 2)}/"
                f"{_fmt(a.get('long_burn'), 2)} "
                f"(threshold {_fmt(a.get('threshold'), 2)})  {cleared}"
            )
        lines += _panel(
            "alerts", alert_lines if alert_lines else ["no burn-rate alerts"]
        )
        reuse = dash.get("reuse")
        if reuse is None:
            lines += _panel("cache reuse", ["reuse: disabled for this serve"])
        else:
            trace = reuse["trace"]
            body = [
                f"{trace.get('accesses')} accesses over "
                f"{trace.get('distinct_keys')} keys   "
                f"footprint {trace.get('footprint_bytes')} B   "
                f"capacity {reuse.get('capacity_bytes')} B "
                f"({reuse.get('policy')})",
            ]
            for name, track in (
                ("hit_rate", reuse["hit_rate"]),
                ("working_set_bytes", reuse["working_set_bytes"]),
            ):
                peak = max((v for v in track if v is not None), default=0.0)
                body.append(
                    f"{name.rjust(17)} |{sparkline(track, width)}| "
                    f"peak {_fmt(peak, 3)}"
                )
            mrc_rows = [
                [
                    str(p["capacity_bytes"])
                    + ("*" if p["capacity_bytes"] == reuse["capacity_bytes"]
                       else ""),
                    str(p["misses"]),
                    _fmt(p["miss_ratio"], 3),
                ]
                for p in reuse["mrc"]
            ]
            if mrc_rows:
                body.append("")
                body += _aligned(
                    ["capacity (B)", "misses", "miss ratio"], mrc_rows
                )
                body.append("(* = configured capacity)")
            lines += _panel("cache reuse", body)
    if dash["oplog"]:
        total = sum(dash["oplog"].values())
        op_rows = [
            [ev, str(n)] for ev, n in sorted(dash["oplog"].items())
        ]
        lines += _panel(
            f"ops log ({total} events)", _aligned(["event", "count"], op_rows)
        )
    return "\n".join(lines).rstrip() + "\n"
