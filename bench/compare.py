"""``python -m bench compare PARENT.json CHANGE.json``.

Repetition ``i`` of a workload draws the same inputs in both files (same
``--seed``), so the comparison is paired: per workload and end-to-end
metric it prints both medians, the median over repetitions of the
relative difference (positive = the change is worse), how far apart the
repetitions' differences lie, the bound, and a verdict:

``worse`` / ``better``
    the median difference exceeds the bound;
``unresolved``
    it does not, but the repetitions disagree by more than the bound, so
    the run cannot tell ``ok`` from ``worse``;
``ok``
    within the bound.

A bound of 0 marks a metric that repeats exactly on the same inputs
(``completed_share``, ``model_error_max``): there the row reports the
repetition that moved most, and any move is ``worse`` or ``better``.

Exit status 1 when any row reads ``worse``, when an oracle failed in
either file, or when a workload's digests or repetition counts differ:
two runs that did not compute the same answers do not agree, whatever
their timings say.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Mapping

from bench.metrics import MANIFEST

__all__ = ["compare_files", "verdict"]

_HIGHER_IS_BETTER = {
    m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    if m["better"] == "higher"
}


def verdict(name: str, parent: Mapping, change: Mapping, bound: float) -> Dict[str, object]:
    """One row: ``parent`` and ``change`` are ``{"value", "samples"}``
    with samples in repetition order."""
    sign = -1.0 if name in _HIGHER_IS_BETTER else 1.0
    worse_by = [
        sign * (b - a) / abs(a) if a else (0.0 if b == a else sign * float("inf"))
        for a, b in zip(parent["samples"], change["samples"])
    ]
    middle = statistics.median(worse_by)
    spread = max(worse_by) - min(worse_by)
    if bound == 0:  # exact: one repetition that moved is a change
        middle = max(worse_by) if max(worse_by) > 0 else min(worse_by)
    if middle > bound:
        word = "worse"
    elif middle < -bound:
        word = "better"
    elif spread > bound > 0:
        word = "unresolved"
    else:
        word = "ok"
    return {"parent": parent["value"], "change": change["value"],
            "worse_by": middle + 0.0,  # -0.0 prints as a move
            "bound": bound, "spread": spread, "verdict": word}


def compare_files(parent_path: Path, change_path: Path) -> int:
    parent = json.loads(parent_path.read_text(encoding="utf-8"))
    change = json.loads(change_path.read_text(encoding="utf-8"))
    for key in ("seed", "scale"):
        if parent["header"][key] != change["header"][key]:
            print(f"runs differ in --{key}: repetitions do not pair")
            return 2
    bounds = parent["bounds"]
    any_worse = False
    print(f"{'workload':<17} {'metric':<18} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            print(f"{workload:<17} missing from {change_path}")
            any_worse = True
            continue
        for label, side in (("parent", before), ("change", after)):
            if not side["correct"]:
                print(f"{workload:<17} an oracle failed in the {label}: "
                      + "; ".join(side["problems"]))
                any_worse = True
        if before["digests"] != after["digests"]:
            print(f"{workload:<17} digests changed: the two runs did not compute "
                  "the same answers")
            any_worse = True
        repetitions = [len(d["untraced"]) for d in (before["digests"], after["digests"])]
        if repetitions[0] != repetitions[1]:
            print(f"{workload:<17} {repetitions[0]} repetitions against "
                  f"{repetitions[1]}: they do not pair")
            continue
        for name, entry in before["end_to_end"].items():
            row = verdict(name, entry, after["end_to_end"][name], bounds[name])
            any_worse |= row["verdict"] == "worse"
            print(f"{workload:<17} {name:<18} {row['parent']:>12.5g} "
                  f"{row['change']:>12.5g} {row['worse_by']:>+9.1%} "
                  f"{row['bound']:>6.0%} {row['spread']:>7.1%}  {row['verdict']}")
    return 1 if any_worse else 0
