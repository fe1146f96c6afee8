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
``results/BENCH_bench_regression.json``; ``check`` compares that artifact
(or any named ``results/BENCH_<name>.json``) with the committed baseline
under ``baselines/`` exactly, leaf by leaf, and exits 1 naming every leaf
path that differs — a slower makespan, a faster one, a moved digest, a
leaf added or removed.  The simulated clock is deterministic, so any
difference is a behaviour change; ``--update`` records an intended one.
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


def leaves(payload: object, prefix: str = "") -> List[Tuple[str, object]]:
    """Every leaf of a benchmark artifact as ``(path, value)``, path-sorted.

    Paths are slash-joined dict keys / list indices, e.g.
    ``switched_small/ij/makespan_s`` or ``mrc/2/miss_ratio``; an empty
    dict or list is a leaf of its own.
    """
    if isinstance(payload, dict) and payload:
        items = [(str(key), payload[key]) for key in sorted(payload)]
    elif isinstance(payload, list) and payload:
        items = [(str(i), item) for i, item in enumerate(payload)]
    else:
        return [(prefix, payload)]
    found: List[Tuple[str, object]] = []
    for key, child in items:
        found.extend(leaves(child, f"{prefix}/{key}" if prefix else key))
    return found


def iter_makespans(payload: object) -> List[Tuple[str, float]]:
    """The simulated makespans of an artifact, as ``bench`` prints them."""
    return [
        (path, float(value)) for path, value in leaves(payload)
        if path.rsplit("/", 1)[-1] == "makespan_s"
    ]


def compare_benchmarks(current: object, baseline: object) -> List[str]:
    """Every leaf path where ``current`` differs from ``baseline``, sorted;
    empty when the two artifacts are equal."""
    cur, base = dict(leaves(current)), dict(leaves(baseline))
    diffs: List[str] = []
    for path in sorted(set(cur) | set(base)):
        if path not in cur:
            diffs.append(f"{path}: missing from current results")
        elif path not in base:
            diffs.append(f"{path}: new (no baseline), {cur[path]}")
        elif cur[path] != base[path]:
            diffs.append(f"{path}: {base[path]} -> {cur[path]}")
    return diffs


def _cmd_bench(args: argparse.Namespace) -> int:
    payload = run_tracked_benchmarks()
    path = record_json(args.name, payload)
    for leaf, value in iter_makespans(payload):
        print(f"{leaf}: {value:.6f}s")
    print(f"wrote {path}")
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
        diffs = compare_benchmarks(current, baseline)
        for line in diffs:
            print(f"{name}: DIFFERS: {line}", file=sys.stderr)
        if diffs:
            status = 1
        else:
            print(f"{name}: OK — all {len(leaves(current))} leaves equal "
                  "the baseline")
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
    p_check.add_argument("--update", action="store_true",
                         help="rewrite the baselines from the current "
                              "artifacts instead of checking")
    p_check.set_defaults(fn=_cmd_check)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
