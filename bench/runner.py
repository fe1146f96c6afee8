"""Spawning repetitions and folding their reports into results.

:func:`measure` is what the driver's command runs: one workload, one
seed, untraced (end-to-end metrics) or traced (per-layer metrics).
:func:`run_suite` is ``python -m bench run``: both passes over all six
workloads, printed and written to ``bench/results/``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from bench import RESULTS, ROOT, SRC
from bench.metrics import (
    MANIFEST,
    SCOPED_END_TO_END,
    UNITS,
    compare_bounds,
    emit,
    layer_metrics,
    unit_metrics,
)

__all__ = ["WORKLOAD_NAMES", "measure", "run_suite"]

WORKLOAD_NAMES = tuple(w["name"] for w in MANIFEST["workloads"])
_END_TO_END = tuple(m["name"] for m in MANIFEST["end_to_end"])
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: a child that outlives this is killed, so a run ends inside the
#: driver's 180 s whatever happens
_CHILD_TIMEOUT_S = 150
#: Repetitions of an untraced run: a median needs three values to outvote
#: a disturbed one.  A constant, not "until --seconds have passed": the
#: inputs a run draws, and so its counts and digests, must not depend on
#: how fast the host happened to be.  The workloads are sized so that
#: three timed regions add up to BENCHMARK.json's run_seconds.
REPETITIONS = 3


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn(workload: str, seed: int, scale: float, mode: str = "plain") -> Dict[str, object]:
    spec = {"workload": workload, "seed": seed, "scale": scale, "mode": mode}
    done = subprocess.run(
        [sys.executable, "-m", "bench.child", json.dumps(spec)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=_CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"repetition {spec} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _unit_seed(seed: int, unit: int) -> int:
    """Each repetition of a run draws its own inputs: the run-to-run
    spread of a 3 s serve is mostly which queries it drew, and a median
    over distinct draws narrows that where a median over replays cannot."""
    return seed * 100 + unit


def measure(workload: str, seed: int, trace: bool, scale: float = 1.0) -> Dict[str, object]:
    """One run: :data:`REPETITIONS` fresh-process repetitions on distinct
    inputs (untraced), or one untraced + one spans + one profile
    repetition on the same inputs (traced)."""
    problems: List[str] = []
    if not trace:
        units = [_spawn(workload, _unit_seed(seed, i), scale) for i in range(REPETITIONS)]
        per_unit = [unit_metrics(rep) for rep in units]
        samples = {name: [u[name] for u in per_unit] for name in per_unit[0]}
        values = {name: statistics.median(samples[name]) for name in _END_TO_END}
        metrics = emit(values, "end_to_end")
        extra = {"samples": samples}
    else:
        first = _unit_seed(seed, 0)
        plain = _spawn(workload, first, scale)
        spans = _spawn(workload, first, scale, mode="spans")
        profile = _spawn(workload, first, scale, mode="profile")
        units = [plain, spans, profile]
        bypass = None
        if workload == "serve_observed":
            # the same stream with the observers off: the base of
            # observe.overhead_ratio, and its digest must not move
            bypass = _spawn("serve_functional", first, scale)
            units.append(bypass)
        if len({rep["digest"] for rep in units}) != 1:
            problems.append(
                "digests differ across passes on the same inputs: "
                + ", ".join(f"{rep['workload']}/{rep['mode']}={rep['digest'][:12]}"
                            for rep in units)
            )
        metrics = emit(layer_metrics(plain, spans, profile, bypass), "per_layer")
        extra = {"trace": spans["trace"], "shares": profile["shares"]}
    for rep in units:
        problems += [f"{rep['workload']} seed {rep['seed']}: {f}" for f in rep["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in units),
        # an operation fails when its answer is wrong; a query the chaos
        # serve sheds or times out is counted by completed_share instead
        "failed": sum(len(rep["failures"]) for rep in units),
        "metrics": metrics,
        "problems": problems,
        "digests": [rep["digest"] for rep in units],
        **extra,
    }


def result_line(result: Dict[str, object]) -> str:
    """The one JSON object the driver reads off the last line."""
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


# -- the whole suite ---------------------------------------------------------


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def header() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "thread_env": {name: "1" for name in _THREAD_ENV},
        "PYTHONHASHSEED": "0",
    }


def _print_metrics(title: str, rows) -> None:
    print(f"  {title}")
    for name, value, unit, note in rows:
        print(f"    {name:<40} {value:>16.6g} {unit:<6} {note}")


def run_suite(seed: int, scale: float, out: Path) -> int:
    """Both passes over every workload; 0 when every oracle passed."""
    info = {**header(), "seed": seed, "scale": scale}
    print("host-clock benchmark  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    document = {"header": info, "bounds": compare_bounds(), "workloads": {}}
    failed = False
    RESULTS.mkdir(exist_ok=True)
    for workload in WORKLOAD_NAMES:
        untraced = measure(workload, seed, trace=False, scale=scale)
        traced = measure(workload, seed, trace=True, scale=scale)
        problems = untraced["problems"] + traced["problems"]
        failed |= bool(problems)
        samples = untraced["samples"]
        scoped = [n for n, (on, _) in SCOPED_END_TO_END.items() if on == workload]
        end_to_end = {
            name: {"value": statistics.median(samples[name]), "samples": samples[name]}
            for name in (*_END_TO_END, *scoped)
        }
        print(f"\n{workload}: {'ok' if not problems else 'FAILED'}  "
              f"attempted={untraced['attempted']} failed={untraced['failed']}  "
              f"digest={traced['digests'][0][:16]}")
        for problem in problems:
            print(f"  ! {problem}")
        _print_metrics("end to end (median of fresh-process repetitions)", [
            (name, entry["value"], UNITS[name], f"n={len(entry['samples'])}")
            for name, entry in end_to_end.items()
        ])
        latencies = {
            name: statistics.median(values) for name, values in samples.items()
            if name.startswith("query.") and name.endswith("_ms") and any(values)
        }
        if latencies:
            _print_metrics("median host latency per query template", [
                (name, value, "ms", "") for name, value in latencies.items()
            ])
        _print_metrics("per layer (one traced run)", [
            (name, m["value"], m["unit"], "") for name, m in traced["metrics"].items()
            if name not in SCOPED_END_TO_END
        ])
        document["workloads"][workload] = {
            "correct": not problems,
            "problems": problems,
            "end_to_end": end_to_end,
            "query_latency_ms": latencies,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
            "digests": {"untraced": untraced["digests"], "traced": traced["digests"]},
        }
        trace_path = RESULTS / f"trace_{workload}.json"
        trace_path.write_text(
            json.dumps({"workload": workload, "seed": seed,
                        "shares": traced["shares"], **traced["trace"]}, indent=1),
            encoding="utf-8",
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")
    print(f"\nwrote {out}" + (" — ORACLE FAILURES above" if failed else ""))
    return 1 if failed else 0
