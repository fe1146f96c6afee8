"""From repetition reports to named metrics.

``BENCHMARK.json`` declares the metric names and units the driver sees,
and the bounds it applies; this module computes the values and refuses
to emit a set of names that differs from the declared one.  A metric
that does not apply to a workload (``joins.hash_join.calls`` on a
model-only serve, ``query.scan_share`` anywhere but ``view_query``)
reads 0 — which is why a layer's time is declared as a *share* of its
run's timed region: the driver takes a time that reads the same on every
run for a fake, and a layer that never runs reads 0 every time.
``trace.wall_s`` turns the shares back into seconds;
``trace_<workload>.json`` has the seconds.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Mapping, Optional, Sequence

from bench import ROOT
from bench.trace import ROOT_LAYER, SHARE_PACKAGES

__all__ = [
    "MANIFEST",
    "SCOPED_END_TO_END",
    "SPAN_LAYERS",
    "UNITS",
    "compare_bounds",
    "emit",
    "layer_metrics",
    "unit_metrics",
]

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: End-to-end metrics that exist on one workload only, which
#: BENCHMARK.json cannot hold: the driver wants every ``end_to_end``
#: entry on every workload, never 0.  ``run`` and ``compare`` apply these
#: bounds; the three that are not latencies also ride under ``per_layer``.
#: name -> (workload, bound)
SCOPED_END_TO_END = {
    "query_p50_ms": ("view_query", 0.10),
    "query_p75_ms": ("view_query", 0.15),
    "ingest_mb_per_s": ("view_query", 0.15),
    "scan_vs_raw_ratio": ("view_query", 0.15),
    "model_error_max": ("batch_sweep", 0.0),
}

#: Unit of every metric ``run`` prints.
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
UNITS.update(query_p50_ms="ms", query_p75_ms="ms")


def compare_bounds() -> Dict[str, float]:
    """The bounds ``run`` records and ``compare`` applies.  Two ``run``s
    of one seed draw the same inputs, on which the simulation's
    dispositions repeat exactly, so ``completed_share`` may not move at
    all; its bound in BENCHMARK.json is for the driver, whose runs draw a
    different stream per seed."""
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    bounds.update({name: bound for name, (_, bound) in SCOPED_END_TO_END.items()})
    bounds["completed_share"] = 0.0
    return bounds


#: Layers whose calls / busy_share / self_share the spans pass reports.
SPAN_LAYERS = (
    "cluster.events", "metadata.rtree", "metadata.service", "services.cache",
    "services.bds", "storage.writer", "joins.hash_join", "joins.join_index",
    "joins.scheduler", "core.planner", "core.engine", "server.report",
    "observe.reuse", "query",
)

_QUERY_STEMS = ("scan", "project", "range", "agg", "groupby", "view_ij", "view_gh",
                "raw_read")


def emit(values: Mapping[str, float], kind: str) -> Dict[str, Dict[str, object]]:
    """``values`` as the ``metrics`` object of a result line, in declared
    order with declared units; ``kind`` is ``end_to_end`` or ``per_layer``."""
    declared = {m["name"]: m["unit"] for m in MANIFEST[kind]}
    if declared.keys() != values.keys():
        missing = sorted(declared.keys() - values.keys())
        extra = sorted(values.keys() - declared.keys())
        raise ValueError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def _median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def unit_metrics(rep: Mapping[str, object]) -> Dict[str, float]:
    """Everything one untraced repetition measures on its own: the six
    end-to-end metrics of every workload, the scoped ones, ``query.*``."""
    wall = rep["wall_s"]
    timings: Mapping[str, List[float]] = rep["timings"]
    counts: Mapping[str, float] = rep["counts"]
    out = {
        "setup_s": rep["setup_s"],
        "wall_s": wall,
        "queries_per_s": rep["completed"] / wall,
        "events_per_s": rep["events"] / wall,
        "peak_rss_mb": rep["peak_rss_mb"],
        "completed_share": rep["completed"] / rep["attempted"],
        "model_error_max": counts.get("model_error_max", 0.0),
        "query_p50_ms": 0.0,
        "query_p75_ms": 0.0,
        "ingest_mb_per_s": 0.0,
        "scan_vs_raw_ratio": 0.0,
    }
    for stem in _QUERY_STEMS:
        out[f"query.{stem}_ms"] = _median_ms(timings.get(stem, ()))
        out[f"query.{stem}_share"] = sum(timings.get(stem, ())) / wall
    if timings.get("query"):
        latencies = timings["query"]
        out["query_p50_ms"] = _median_ms(latencies)
        # the highest quartile or decile with at least ten of a
        # repetition's 44 queries beyond it
        out["query_p75_ms"] = 1000.0 * statistics.quantiles(
            latencies, n=4, method="inclusive"
        )[2]
        per_round_mb = counts["storage.bytes_written"] / len(timings["ingest"]) / 1e6
        out["ingest_mb_per_s"] = per_round_mb / statistics.median(timings["ingest"])
        out["scan_vs_raw_ratio"] = (
            statistics.median(timings["scan"]) / statistics.median(timings["raw_read"])
        )
    return out


_COUNT_NAMES = (
    "cluster.sim_makespan_s", "cluster.bytes_from_storage",
    "services.cache.hits", "services.cache.misses", "services.cache.evictions",
    "services.cache.hit_ratio", "joins.pairs_joined",
    "joins.indexed_join.runs", "joins.grace_hash.runs",
    "server.submitted", "server.completed", "server.deadline_exceeded",
    "server.shed", "server.failed", "server.retries",
    "observe.oplog_records", "observe.trace_accesses",
    "core.cost_models.ij_error_max", "core.cost_models.gh_error_max",
    "core.cost_models.winner_agreement",
    "storage.bytes_written", "storage.chunks_written", "services.bds.bytes_read",
)


def layer_metrics(
    plain: Mapping[str, object],
    spans: Mapping[str, object],
    profile: Mapping[str, object],
    bypass: Optional[Mapping[str, object]] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run: an untraced repetition
    (exact counts, host timings, the base of the overhead ratios), the
    spans pass and the profile pass, all on the same inputs.  ``bypass``
    is the same stream served with the observers off (``serve_observed``
    only)."""
    unit = unit_metrics(plain)
    out = {name: unit[name] for name in unit
           if name.startswith("query.") and name.endswith("_share")}
    out.update({name: unit[name] for name in
                ("model_error_max", "ingest_mb_per_s", "scan_vs_raw_ratio")})
    layers = spans["trace"]["layers"]
    # shares are of the whole traced region, the pilot's slices included
    # (they are the layer bench.pilot), so every layer's self shares add to 1
    traced_wall = layers[ROOT_LAYER]["busy_s"]
    for layer in SPAN_LAYERS:
        totals = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = totals["calls"]
        out[f"{layer}.busy_share"] = totals["busy_s"] / traced_wall
        out[f"{layer}.self_share"] = totals["self_s"] / traced_wall
    for package in SHARE_PACKAGES:
        out[f"share.{package}"] = profile["shares"][package]
    for name in _COUNT_NAMES:
        out[name] = plain["counts"].get(name, 0)
    out["cluster.events.dispatched"] = plain["events"]
    kernel = spans["trace"]["join_kernel"]
    out["joins.hash_join.records_in"] = kernel["records_in"]
    out["joins.hash_join.records_out"] = kernel["records_out"]
    kernel_s = layers.get("joins.hash_join", {"busy_s": 0.0})["busy_s"]
    out["joins.hash_join.records_per_s"] = (
        kernel["records_in"] / kernel_s if kernel_s else 0.0
    )
    out["observe.overhead_ratio"] = plain["wall_s"] / bypass["wall_s"] if bypass else 0.0
    out["observe.rss_ratio"] = (
        plain["peak_rss_mb"] / bypass["peak_rss_mb"] if bypass else 0.0
    )
    out["trace.overhead_ratio"] = spans["wall_s"] / plain["wall_s"]
    out["trace.wall_s"] = traced_wall
    slices, slice_s, _ = plain["raw"]["pilot_run"]
    out["host.calibration_s"] = slice_s / slices if slices else 0.0
    out["host.speed_factor"] = plain["speed_factor"]
    return out
