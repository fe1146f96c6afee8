"""Multi-tenant query serving on the simulated cluster.

* :mod:`~repro.server.admission` — admission-queue policies (FIFO,
  shortest-predicted-first, per-tenant fair share) over a bounded slot
  pool.
* :mod:`~repro.server.queries` — seeded query construction: arrival →
  concrete scan/join/aggregate → planner → :class:`PlannedQuery`.
* :mod:`~repro.server.resilience` — serving under failure and overload:
  terminal dispositions, retry backoff, load-shedding policies and the
  queue-wait circuit breaker.
* :mod:`~repro.server.server` — the :class:`QueryServer` itself, its
  shadow serve (:func:`check_shadow_serve`) and the cold-cache serial
  baseline it is measured against.
* :mod:`~repro.server.slo` — per-tenant SLO objectives, error budgets
  and multi-window burn-rate alerts.
* :mod:`~repro.server.observatory` — the passive observability layer
  (windowed time-series, structured ops log, SLO tracking, and the
  per-entry cache reuse trace) the ``repro top`` dashboard renders.
"""

from repro.server.admission import (
    AdmissionPolicy,
    FairShareAdmission,
    FIFOAdmission,
    ShortestPredictedFirst,
    make_admission_policy,
)
from repro.server.queries import PlannedQuery, build_query, draw_box
from repro.server.resilience import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    DISPOSITIONS,
    FAILED,
    SHED,
    CircuitBreaker,
    QueryAborted,
    QueryShed,
    RejectLowestPriority,
    RejectNewest,
    ResilienceConfig,
    RetryPolicy,
    ShedPolicy,
    TokenBucketShedder,
)
from repro.server.observatory import ObservabilityConfig, ServeObservatory
from repro.server.server import (
    QueryRecord,
    QueryServer,
    SerialBaseline,
    ServerReport,
    check_shadow_serve,
    run_serial_baseline,
)
from repro.server.slo import BurnAlert, SLOObjective, SLOTracker

__all__ = [
    "AdmissionPolicy",
    "BurnAlert",
    "COMPLETED",
    "CircuitBreaker",
    "DEADLINE_EXCEEDED",
    "DISPOSITIONS",
    "FAILED",
    "FIFOAdmission",
    "FairShareAdmission",
    "ObservabilityConfig",
    "PlannedQuery",
    "QueryAborted",
    "QueryRecord",
    "QueryServer",
    "QueryShed",
    "RejectLowestPriority",
    "RejectNewest",
    "ResilienceConfig",
    "RetryPolicy",
    "SHED",
    "SLOObjective",
    "SLOTracker",
    "SerialBaseline",
    "ServeObservatory",
    "ServerReport",
    "ShedPolicy",
    "ShortestPredictedFirst",
    "TokenBucketShedder",
    "build_query",
    "check_shadow_serve",
    "draw_box",
    "make_admission_policy",
    "run_serial_baseline",
]
