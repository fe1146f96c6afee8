"""Structural validators for exported observability artifacts.

Two artifact kinds, one CLI:

* **Ops logs** (``.jsonl`` from ``repro serve --oplog-out``): read by
  :func:`read_jsonl`, checked by :func:`repro.telemetry.oplog.validate_oplog`.
* **Server reports** (``repro serve --json-out``), checked by
  :func:`validate_report`: the top-level sections the readers need, with
  their JSON types, and the embedded
  ``observability`` section — windows contiguous over ``[0, t_end]``,
  per-window counter counts non-negative and summing to the track
  total, alert history ordered by fire time.  When the report carries
  a ``reuse`` section, additionally: every miss-ratio curve monotone
  non-increasing in capacity, and working-set window accesses summing
  to the trace total.  Last, every leaf that
  ``repro top`` computes or formats with has the JSON type it needs
  (:data:`_RENDERED_LEAVES`).

CI runs ``python -m repro.telemetry.validate <artifacts...>`` over the
smoke-run outputs; tests call the validators directly.  ``repro top``
loads its files through the same two functions
(:mod:`repro.server.dashboard`), so a file this CLI passes it reads,
and one it refuses this CLI fails.
"""

from __future__ import annotations

import json
import sys
from typing import Any, List

from repro.telemetry.oplog import validate_oplog

__all__ = [
    "check_leaf_types",
    "read_jsonl",
    "validate_observability",
    "validate_oplog",
    "validate_report",
    "main",
]

_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))

#: leaves of the ``observability`` section that ``repro top`` does
#: arithmetic on or formats with a numeric spec, by path (``*``: every
#: key of an object / element of an array) → the JSON types they can
#: take.  Checked where the section is validated, so no
#: renderer has to distrust a loaded report.
_RENDERED_LEAVES = (
    ("timeseries.gauges.*.windows.*.mean", _OPTIONAL_NUMBER),
    ("derived.cache_hit_rate.*.rate", _OPTIONAL_NUMBER),
    ("oplog.events.*", (int,)),
    ("reuse.capacity_bytes", (int,)),
    ("reuse.trace.hits", (int,)),
    ("reuse.trace.footprint_bytes", (int,)),
    ("reuse.working_set.windows.*.hits", (int,)),
    ("reuse.working_set.windows.*.distinct_bytes", _NUMBER),
)


#: top-level sections of a report payload the readers use, by JSON type
_REPORT_SHAPE = (
    ("queries", list),
    ("tenants", dict),
    ("dispositions", dict),
    ("cache", dict),
)

#: leaves outside the ``observability`` section the panels count with
_REPORT_LEAVES = (("dispositions.per_tenant.*.*", (int,)),)


def check_leaf_types(root: Any, table, errors: List[str]) -> None:
    """Append one violation per leaf of ``root`` that a ``(path, types)``
    row of ``table`` reaches and whose value is none of ``types``.  A
    path that leads nowhere (absent key, wrong container) checks nothing:
    container shapes are the callers' own checks, and an absent leaf is
    the renderers' "degrade" case."""
    for path, types in table:
        nodes = [("", root)]
        for step in path.split("."):
            reached = []
            for where, node in nodes:
                if step == "*" and isinstance(node, dict):
                    items = sorted(node.items())
                elif step == "*" and isinstance(node, list):
                    items = enumerate(node)
                elif isinstance(node, dict) and step in node:
                    items = [(step, node[step])]
                else:
                    items = ()
                reached += [(f"{where}.{key}", value) for key, value in items]
            nodes = reached
        for where, value in nodes:
            if not isinstance(value, types):
                expected = "/".join(
                    "null" if t is type(None) else t.__name__ for t in types
                )
                errors.append(f"{where[1:]}: {value!r} is not {expected}")


def _check_windows(
    name: str, windows: Any, t_end: float, errors: List[str]
) -> None:
    """Shared window-geometry checks: contiguous cover of [0, t_end]."""
    if not isinstance(windows, list) or not windows:
        errors.append(f"{name}: missing or empty windows")
        return
    prev_t1 = 0.0
    for j, win in enumerate(windows):
        if not isinstance(win, dict):
            errors.append(f"{name}: window {j} not an object")
            return
        t0, t1 = win.get("t0"), win.get("t1")
        if not isinstance(t0, (int, float)) or not isinstance(t1, (int, float)):
            errors.append(f"{name}: window {j} has non-numeric edges")
            return
        if t0 != prev_t1:
            errors.append(
                f"{name}: window {j} starts at {t0}, expected {prev_t1}"
            )
        if t1 < t0:
            errors.append(f"{name}: window {j} ends {t1} before start {t0}")
        prev_t1 = t1
    if prev_t1 != t_end:
        errors.append(
            f"{name}: windows end at {prev_t1}, horizon is {t_end}"
        )


def _check_mrc(name: str, points: Any, errors: List[str]) -> None:
    """One miss-ratio curve: capacities strictly increasing, misses
    monotone non-increasing in capacity (LRU stack inclusion), ratios
    consistent with the counts."""
    if not isinstance(points, list):
        errors.append(f"{name}: not an array")
        return
    prev_cap = None
    prev_misses = None
    for j, point in enumerate(points):
        if not isinstance(point, dict):
            errors.append(f"{name}: point {j} not an object")
            return
        cap = point.get("capacity_bytes")
        misses = point.get("misses")
        accesses = point.get("accesses")
        ratio = point.get("miss_ratio")
        if not isinstance(cap, int) or not isinstance(misses, int):
            errors.append(f"{name}: point {j} non-integer capacity/misses")
            return
        if prev_cap is not None and cap <= prev_cap:
            errors.append(
                f"{name}: point {j} capacity {cap} not increasing "
                f"from {prev_cap}"
            )
        if prev_misses is not None and misses > prev_misses:
            errors.append(
                f"{name}: point {j} misses {misses} grew from "
                f"{prev_misses} despite larger capacity"
            )
        if isinstance(accesses, int) and accesses > 0:
            expect = misses / accesses
            if not isinstance(ratio, (int, float)) or abs(ratio - expect) > 1e-9:
                errors.append(
                    f"{name}: point {j} miss_ratio {ratio!r} != "
                    f"misses/accesses ({expect})"
                )
        prev_cap, prev_misses = cap, misses


def _validate_reuse(reuse: Any, errors: List[str]) -> None:
    """The ``observability.reuse`` payload from the access-trace
    recorder: see the module docstring for the two invariants."""
    if not isinstance(reuse, dict):
        errors.append("'reuse' is not an object")
        return
    trace = reuse.get("trace")
    if not isinstance(trace, dict):
        errors.append("reuse: missing 'trace' summary")
        return
    mrc = reuse.get("mrc", {})
    if not isinstance(mrc, dict):
        errors.append("reuse: 'mrc' is not an object")
        return
    _check_mrc("reuse mrc global", mrc.get("global"), errors)
    per_tenant = mrc.get("per_tenant", {})
    if isinstance(per_tenant, dict):
        for tenant in sorted(per_tenant):
            _check_mrc(f"reuse mrc tenant {tenant!r}", per_tenant[tenant],
                       errors)
    else:
        errors.append("reuse: 'mrc.per_tenant' is not an object")
    working_set = reuse.get("working_set")
    windows = working_set.get("windows") if isinstance(working_set, dict) else None
    if isinstance(windows, list) and windows:
        accesses = [w.get("accesses", 0) for w in windows if isinstance(w, dict)]
        if any(not isinstance(a, int) for a in accesses):
            errors.append("reuse: working-set window with non-integer accesses")
        elif sum(accesses) != trace.get("accesses"):
            errors.append(
                f"reuse: working-set windows sum to {sum(accesses)} accesses, "
                f"trace recorded {trace.get('accesses')}"
            )
    else:
        errors.append("reuse: missing working-set windows")


def validate_observability(section: Any) -> List[str]:
    """Validate the ``observability`` section of a server report.

    Counter tracks must be non-decreasing (every per-window count
    ``>= 0``) and their windows must sum to the reported total; gauge
    and counter windows must tile ``[0, t_end]`` contiguously; the
    alert history must be ordered by fire time.
    """
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["observability section is not an object"]
    ts = section.get("timeseries")
    if not isinstance(ts, dict):
        return ["missing 'timeseries' object"]
    t_end = ts.get("t_end")
    if not isinstance(t_end, (int, float)) or t_end < 0:
        return [f"bad t_end {t_end!r}"]
    for kind in ("counter", "gauge"):
        tracks = ts.get(f"{kind}s", {})
        if not isinstance(tracks, dict):
            errors.append(f"timeseries '{kind}s' is not an object")
            continue
        for name in sorted(tracks):
            track = tracks[name]
            if not isinstance(track, dict):
                errors.append(f"{kind} {name!r}: not an object")
                continue
            windows = track.get("windows")
            _check_windows(f"{kind} {name!r}", windows, t_end, errors)
            if kind == "gauge" or not isinstance(windows, list):
                continue
            counts = [w.get("count") for w in windows if isinstance(w, dict)]
            if any(not isinstance(c, (int, float)) or c < 0 for c in counts):
                errors.append(f"counter {name!r}: negative or missing count")
            elif counts and sum(counts) != track.get("total"):
                errors.append(
                    f"counter {name!r}: windows sum to {sum(counts)}, "
                    f"total is {track.get('total')}"
                )
    alerts = section.get("alerts", [])
    if isinstance(alerts, list):
        fired = [
            a.get("fired_at") for a in alerts if isinstance(a, dict)
        ]
        if any(not isinstance(t, (int, float)) for t in fired):
            errors.append("alert with missing or non-numeric fired_at")
        elif fired != sorted(fired):
            errors.append("alert history not ordered by fired_at")
    else:
        errors.append("'alerts' is not an array")
    if "reuse" in section:
        _validate_reuse(section["reuse"], errors)
    check_leaf_types(section, _RENDERED_LEAVES, errors)
    return errors


def validate_report(doc: Any) -> List[str]:
    """Validate a ``repro serve --json-out`` payload: a JSON object with
    every section of :data:`_REPORT_SHAPE` (the first one missing is the
    only violation reported), the leaves of :data:`_REPORT_LEAVES`, and
    the ``observability`` section when there is one."""
    if not isinstance(doc, dict):
        return ["not a server report (not a JSON object)"]
    for key, kind in _REPORT_SHAPE:
        if not isinstance(doc.get(key), kind):
            return [f"not a server report (no {key!r} {kind.__name__})"]
    errors: List[str] = []
    check_leaf_types(doc, _REPORT_LEAVES, errors)
    if "observability" in doc:
        errors += validate_observability(doc["observability"])
    return errors


def read_jsonl(path: str) -> List[Any]:
    """The records of a JSONL file, one per non-blank line.  A line that
    is not JSON, or a file that is not UTF-8 text, is a ``ValueError``
    saying which."""
    records: List[Any] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno} unparseable ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"not UTF-8 text ({exc})") from exc
    return records


def _validate_file(path: str) -> List[str]:
    """Dispatch one artifact to its validator by extension."""
    if path.endswith(".jsonl"):
        return validate_oplog(read_jsonl(path))
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return validate_report(doc)


def main(argv: List[str]) -> int:
    if not argv:
        print(
            "usage: python -m repro.telemetry.validate "
            "ARTIFACT.json|ARTIFACT.jsonl ..."
        )
        return 2
    status = 0
    for path in argv:
        try:
            errors = _validate_file(path)
        except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding
            print(f"{path}: unreadable ({exc})")
            status = 1
            continue
        if errors:
            status = 1
            for err in errors:
                print(f"{path}: {err}")
        else:
            print(f"{path}: OK")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
