"""Shared machinery for the experiment benchmarks, plus the regression CLI.

Every benchmark regenerates one table or figure of the paper's evaluation:
it sweeps the figure's x-axis through :mod:`repro.experiments`, overlays
the analytic cost models, prints the series as the paper would tabulate it
(saved under ``benchmarks/results/``), and asserts the figure's
qualitative claims (who wins, trends, crossovers).

Alongside each human-readable ``results/<name>.txt``, benches can save a
machine-readable ``results/BENCH_<name>.json`` via :func:`record_json`;
:func:`report_payload` / :func:`point_payload` turn execution reports into
the per-point dictionaries (makespan, phase breakdown, cache hit rate,
recovery counters) those artifacts carry.

Run as a script, the harness is the benchmark regression tracker::

    python benchmarks/harness.py bench             # run the tracked configs
    python benchmarks/harness.py check bench_regression
    python benchmarks/harness.py check bench_regression --update

``bench`` executes the small tracked configurations (deterministic
simulated makespans — no wall clock anywhere) and writes
``results/BENCH_bench_regression.json``, appending a dated summary line
to the local ``results/history.jsonl`` run log; ``check`` walks every
``makespan_s``/``miss_ratio`` leaf of that artifact against the committed
baseline under ``baselines/`` and exits 1 on any relative regression
beyond ``--tolerance``, and on any ``digest`` leaf that differs from the
baseline at all — either fails CI.  ``--update`` rewrites the baseline
after an intentional behaviour change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Re-exported so the individual bench files keep a single import point.
from repro.experiments.runner import PointResult, run_point  # noqa: F401
from repro.joins.report import ExecutionReport

RESULTS_DIR = Path(__file__).parent / "results"
BASELINES_DIR = Path(__file__).parent / "baselines"

#: Relative makespan increase tolerated before `check` fails.  Simulated
#: times are deterministic, so any drift is a real behaviour change; the
#: slack only absorbs float-level noise from refactors that reorder
#: arithmetic.
DEFAULT_TOLERANCE = 0.02

#: Leaf keys the regression tracker walks: simulated makespans plus the
#: reuse bench's what-if miss ratios (both are "smaller is better", so
#: the same growth-beyond-tolerance rule applies).
TRACKED_LEAVES = ("makespan_s", "miss_ratio")

#: Leaf keys compared exactly: a digest names one behaviour, so any
#: difference from the baseline fails until ``--update`` records it.
EXACT_LEAVES = ("digest",)


def record_table(
    name: str,
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """Format a result table, print it, and save it under results/."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [title, ""]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    text = "\n".join(lines)
    if notes:
        text += "\n\n" + "\n".join(notes)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
    return text


def fmt(x: float, digits: int = 2) -> str:
    return f"{x:.{digits}f}"


def report_payload(report: ExecutionReport) -> Dict[str, object]:
    """One execution report as a JSON-ready dictionary."""
    agg = report.aggregate_phases()
    hits = sum(s.hits for s in report.cache_stats)
    misses = sum(s.misses for s in report.cache_stats)
    rec = report.recovery
    out: Dict[str, object] = {
        "makespan_s": report.total_time,
        "phases": {
            "transfer": agg.transfer,
            "scratch_write": agg.scratch_write,
            "scratch_read": agg.scratch_read,
            "cpu_build": agg.cpu_build,
            "cpu_lookup": agg.cpu_lookup,
            "stall": agg.stall,
        },
        "bytes_from_storage": report.bytes_from_storage,
        "pairs_joined": report.pairs_joined,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else None,
        "recovery": {
            "retries": rec.retries,
            "failovers": rec.failovers,
            "reassigned_pairs": rec.reassigned_pairs,
            "restarted_chunks": rec.restarted_chunks,
            "cache_invalidations": rec.cache_invalidations,
            "wasted_seconds": rec.wasted_seconds,
            "wasted_bytes": rec.wasted_bytes,
        },
    }
    if report.critical_path is not None:
        out["critical_path"] = report.critical_path.to_dict()
    return out


def point_payload(r: PointResult) -> Dict[str, object]:
    """Both algorithms of one sweep point, with the model predictions."""
    return {
        "spec": r.spec.describe(),
        "ij": report_payload(r.ij_report),
        "gh": report_payload(r.gh_report),
        "ij_pred_s": r.ij_pred,
        "gh_pred_s": r.gh_pred,
        "sim_winner": r.sim_winner,
        "model_winner": r.model_winner,
    }


def record_json(name: str, payload: object) -> Path:
    """Save a machine-readable artifact as ``results/BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def append_history(name: str, payload: object) -> Path:
    """Append one dated line for ``payload`` to ``results/history.jsonl``.

    The history file is an append-only local record of every ``bench``
    run — date, artifact name and all makespan leaves — so a developer
    can see how tracked makespans moved across their own runs without
    digging through git history of the baselines.  The date is wall
    clock (this is host-side tooling, not simulation code, so simlint's
    no-wall-clock rule does not apply here) and the line layout is
    sorted-key JSON like every other artifact.
    """
    import datetime

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "history.jsonl"
    entry = {
        "date": datetime.date.today().isoformat(),
        "artifact": name,
        "makespans": dict(iter_makespans(payload)),
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


# -- benchmark regression tracking --------------------------------------------------


def tracked_configurations() -> Dict[str, Dict[str, object]]:
    """The small configurations the regression tracker runs in CI.

    Small enough to finish in seconds, but covering both deployments
    (switched fabric and shared NFS) so a perf regression in either QES
    or either topology moves at least one tracked makespan.
    """
    from repro.workloads.generator import GridSpec

    small = GridSpec((16, 16, 16), (4, 4, 4), (4, 4, 4))
    return {
        "switched_small": {"spec": small, "n_s": 2, "n_j": 2},
        "nfs_small": {"spec": small, "n_s": 1, "n_j": 2, "shared_nfs": True},
    }


def run_tracked_benchmarks() -> Dict[str, object]:
    """Execute the tracked configs; returns the JSON-ready payload."""
    payload: Dict[str, object] = {}
    for name, cfg in sorted(tracked_configurations().items()):
        result = run_point(
            cfg["spec"],
            n_s=cfg["n_s"],
            n_j=cfg["n_j"],
            shared_nfs=bool(cfg.get("shared_nfs", False)),
        )
        payload[name] = point_payload(result)
    return payload


def _iter_leaves(
    payload: object, keys: Sequence[str], prefix: str = ""
) -> List[Tuple[str, object]]:
    """Every leaf of a benchmark artifact named by ``keys``, path-sorted.

    Paths are slash-joined dict keys / list indices, e.g.
    ``switched_small/ij/makespan_s`` or ``mrc/2/miss_ratio``.
    """
    found: List[Tuple[str, object]] = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}/{key}" if prefix else str(key)
            if key in keys:
                found.append((path, payload[key]))
            else:
                found.extend(_iter_leaves(payload[key], keys, path))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            found.extend(_iter_leaves(item, keys, f"{prefix}/{i}" if prefix else str(i)))
    return found


def iter_makespans(payload: object) -> List[Tuple[str, float]]:
    """All toleranced leaves (:data:`TRACKED_LEAVES`) of an artifact."""
    return [(path, float(v)) for path, v in _iter_leaves(payload, TRACKED_LEAVES)]


def iter_digests(payload: object) -> List[Tuple[str, object]]:
    """All exactly-compared leaves (:data:`EXACT_LEAVES`) of an artifact."""
    return _iter_leaves(payload, EXACT_LEAVES)


def compare_benchmarks(
    current: object, baseline: object, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[List[str], List[str]]:
    """Diff every tracked leaf of ``current`` against ``baseline``.

    Returns ``(regressions, notes)``: regressions are makespans that grew
    by more than ``tolerance`` (relative), digests that differ at all,
    and leaves of either kind that disappeared from the current artifact
    — each fails CI; notes record improvements, new leaves and
    within-tolerance drift.
    """
    cur = dict(iter_makespans(current))
    base = dict(iter_makespans(baseline))
    regressions: List[str] = []
    notes: List[str] = []
    for path in sorted(base):
        if path not in cur:
            regressions.append(f"{path}: missing from current results")
            continue
        b, c = base[path], cur[path]
        rel = (c - b) / b if b > 0 else (0.0 if c == b else float("inf"))
        line = f"{path}: {b:.6f}s -> {c:.6f}s ({rel:+.2%})"
        if rel > tolerance:
            regressions.append(line)
        elif rel != 0:
            notes.append(line)
    for path in sorted(set(cur) - set(base)):
        notes.append(f"{path}: new (no baseline), {cur[path]:.6f}s")
    cur_digests = dict(iter_digests(current))
    base_digests = dict(iter_digests(baseline))
    for path in sorted(base_digests):
        if path not in cur_digests:
            regressions.append(f"{path}: missing from current results")
        elif cur_digests[path] != base_digests[path]:
            regressions.append(
                f"{path}: {base_digests[path]} -> {cur_digests[path]} (digest changed)"
            )
    for path in sorted(set(cur_digests) - set(base_digests)):
        notes.append(f"{path}: new (no baseline), {cur_digests[path]}")
    return regressions, notes


def _cmd_bench(args: argparse.Namespace) -> int:
    payload = run_tracked_benchmarks()
    path = record_json(args.name, payload)
    for leaf, value in iter_makespans(payload):
        print(f"{leaf}: {value:.6f}s")
    print(f"wrote {path}")
    history = append_history(args.name, payload)
    print(f"appended {history}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    status = 0
    for name in args.names:
        current_path = RESULTS_DIR / f"BENCH_{name}.json"
        baseline_path = BASELINES_DIR / f"BENCH_{name}.json"
        if not current_path.exists():
            print(f"{name}: no current artifact at {current_path} "
                  f"(run `python benchmarks/harness.py bench` first)",
                  file=sys.stderr)
            status = 1
            continue
        current = json.loads(current_path.read_text())
        if args.update or not baseline_path.exists():
            BASELINES_DIR.mkdir(exist_ok=True)
            baseline_path.write_text(
                json.dumps(current, indent=2, sort_keys=True) + "\n"
            )
            verb = "updated" if args.update else "created (was missing)"
            print(f"{name}: baseline {verb}: {baseline_path}")
            continue
        baseline = json.loads(baseline_path.read_text())
        regressions, notes = compare_benchmarks(
            current, baseline, tolerance=args.tolerance
        )
        for line in notes:
            print(f"{name}: note: {line}")
        if regressions:
            for line in regressions:
                print(f"{name}: REGRESSION: {line}", file=sys.stderr)
            status = 1
        else:
            print(f"{name}: OK — {len(iter_makespans(current))} tracked "
                  f"leaves within {args.tolerance:.0%} of baseline, "
                  f"{len(iter_digests(current))} digests identical")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harness",
        description="benchmark regression tracker (see module docstring)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_bench = sub.add_parser(
        "bench", help="run the tracked configs and write the artifact"
    )
    p_bench.add_argument("--name", default="bench_regression",
                         help="artifact name (default bench_regression)")
    p_bench.set_defaults(fn=_cmd_bench)
    p_check = sub.add_parser(
        "check", help="diff current artifacts against committed baselines"
    )
    p_check.add_argument("names", nargs="*", default=["bench_regression"],
                         help="artifact names (default bench_regression)")
    p_check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                         help="relative makespan increase allowed "
                              f"(default {DEFAULT_TOLERANCE})")
    p_check.add_argument("--update", action="store_true",
                         help="rewrite the baselines from the current "
                              "artifacts instead of checking")
    p_check.set_defaults(fn=_cmd_check)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
