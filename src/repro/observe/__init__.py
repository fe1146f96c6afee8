"""Observability for the planner: EXPLAIN ANALYZE and the drift loop.

This package closes the loop between the Section 5 analytic cost models
and the simulated executions they predict:

- :mod:`repro.observe.profile` — :class:`PlanProfile`, a plan tree
  annotated operator-by-operator with predicted vs. observed time,
  bytes and records, built from a run's telemetry streams.
- :mod:`repro.observe.explain` — the pre-execution plan tree behind
  ``repro explain``.
- :mod:`repro.observe.drift` — the persistent drift store behind
  ``repro run --analyze`` / ``repro drift``.  Drift is reported, never
  fitted back into the planner: ``benchmarks/test_model_residual.py``
  measures where the gap between model and simulation goes.
- :mod:`repro.observe.reuse` — the cache reuse observatory behind
  ``repro top``'s cache-reuse panel: per-entry access traces, Mattson
  miss-ratio curves and working-set windows.
"""

from repro.observe.drift import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftRecord,
    DriftStore,
    TermDriftSummary,
    config_fingerprint,
    render_drift_report,
    summarize_drift,
)
from repro.observe.explain import explain_plan, render_explanation
from repro.observe.profile import (
    COORDINATION,
    OPERATOR_CATEGORIES,
    OperatorProfile,
    PlanProfile,
    PlannedOperator,
    planned_operators,
    profile_execution,
)
from repro.observe.reuse import (
    AccessTraceRecorder,
    miss_ratio_curve,
    reuse_distances,
    working_set_windows,
)

__all__ = [
    "DEFAULT_DRIFT_THRESHOLD",
    "DriftRecord",
    "DriftStore",
    "TermDriftSummary",
    "config_fingerprint",
    "render_drift_report",
    "summarize_drift",
    "explain_plan",
    "render_explanation",
    "COORDINATION",
    "OPERATOR_CATEGORIES",
    "OperatorProfile",
    "PlanProfile",
    "PlannedOperator",
    "planned_operators",
    "profile_execution",
    "AccessTraceRecorder",
    "miss_ratio_curve",
    "reuse_distances",
    "working_set_windows",
]
