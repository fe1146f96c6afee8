"""``repro explain``: render a plan tree without executing anything.

Evaluates both Section 5 cost models for a configuration and lays each
one out operator by operator — the same operator rows, names and
ordering that :func:`~repro.observe.profile.profile_execution` later
annotates with observed values, via the shared
:func:`~repro.observe.profile.planned_operators` helper.  The output is
deterministic text (or sorted-key JSON with ``--json``) so explain
output can be diffed across commits.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.cost_models import (
    CostParameters,
    crossover_ne_cs,
    grace_hash_cost,
    indexed_join_cost,
    models_are_tossup,
)
from repro.observe.drift import config_fingerprint
from repro.observe.profile import planned_operators

__all__ = ["explain_plan", "render_explanation"]


def explain_plan(
    params: CostParameters, *, pipelined: bool = False
) -> Dict[str, object]:
    """Machine-readable plan explanation for one configuration."""
    ij = indexed_join_cost(params, pipelined=pipelined)
    gh = grace_hash_cost(params)
    chosen = "indexed-join" if ij.total <= gh.total else "grace-hash"
    algorithms: Dict[str, object] = {}
    for name, total in (("indexed-join", ij.total), ("grace-hash", gh.total)):
        algorithms[name] = {
            "predicted_total_s": total,
            "operators": [
                {
                    "name": op.name,
                    "predicted_s": op.predicted_s,
                    "predicted_units": op.predicted_units,
                    "unit": op.unit,
                }
                for op in planned_operators(name, params, pipelined=pipelined)
            ],
        }
    return {
        "chosen": chosen,
        "pipelined": pipelined,
        "tossup": models_are_tossup(ij.total, gh.total),
        "fingerprint": config_fingerprint(params, pipelined=pipelined),
        "algorithms": algorithms,
        "crossover_ne_cs": crossover_ne_cs(params),
        "ne_cs": params.n_e * params.c_S,
    }


def render_explanation(info: Dict[str, object]) -> str:
    """Deterministic plan-tree text for :func:`explain_plan` output."""
    lines: List[str] = []
    chosen = info["chosen"]
    algorithms: Dict[str, Dict[str, object]] = info["algorithms"]  # type: ignore[assignment]
    for name in ("indexed-join", "grace-hash"):
        entry = algorithms[name]
        mark = "*" if name == chosen else " "
        mode = (
            " (pipelined)" if name == "indexed-join" and info["pipelined"]
            else ""
        )
        lines.append(
            f"{mark} {name}{mode}: predicted "
            f"{entry['predicted_total_s']:.4f}s"
        )
        ops: List[Dict[str, object]] = entry["operators"]  # type: ignore[assignment]
        for i, op in enumerate(ops):
            branch = "└─" if i == len(ops) - 1 else "├─"
            lines.append(
                f"  {branch} {op['name']:<15} pred {op['predicted_s']:9.4f}s"
                f"  {int(op['predicted_units']):,} {op['unit']}"
            )
    lines.append(f"chosen QES: {chosen} (* above)")
    lines.append(
        f"crossover n_e*c_S: {info['crossover_ne_cs']:.0f} "
        f"(this view: {info['ne_cs']:,})"
    )
    lines.append(f"config fingerprint: {info['fingerprint']}")
    if info["tossup"]:
        lines.append(
            "note: toss-up — the models are within 5% of each other; the "
            "choice is sensitive to cost-model drift"
        )
    return "\n".join(lines)
