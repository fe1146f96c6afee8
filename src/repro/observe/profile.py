"""Per-operator plan profiles: EXPLAIN ANALYZE for the simulated planner.

A :class:`PlanProfile` mirrors a :class:`~repro.core.planner.Plan`
operator by operator and pairs every analytic cost term with what the
execution actually did.  The *predicted* side comes straight from the
Section 5 models (:func:`indexed_join_cost` / :func:`grace_hash_cost`);
the *observed* side comes from the PR-4 telemetry streams of the same
run:

- **observed seconds** are critical-path time grouped by span category
  (:meth:`CriticalPath.by_category`).  Because the path's segments
  telescope over the whole query span, the operator rows — plus one
  synthetic ``coordination`` row absorbing the categories no model term
  claims (waits, control, fault handling) — sum *exactly* to the
  reported makespan.
- **busy seconds** are the summed per-joiner phase waits
  (:meth:`ExecutionReport.aggregate_phases`), the "thread profile" view
  that exceeds the makespan under parallelism.
- **observed units** (bytes moved, records built/probed) come from the
  ``op.*`` metrics counters the QES implementations increment, with the
  report's aggregate counters as fallback for untraced categories.

The profile also carries the planner's counterfactual — the model time
of the QES it did *not* pick — so ``repro run --analyze`` can report
planner regret, and each operator row lowers to a
:class:`~repro.observe.drift.DriftRecord` for the drift store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.cost_models import (
    CostBreakdown,
    CostParameters,
    grace_hash_cost,
    indexed_join_cost,
    models_are_tossup,
)
from repro.joins.report import ExecutionReport
from repro.observe.drift import DriftRecord, config_fingerprint

__all__ = [
    "OperatorProfile",
    "PlanProfile",
    "PlannedOperator",
    "planned_operators",
    "profile_execution",
    "OPERATOR_CATEGORIES",
    "COORDINATION",
]

#: Span categories whose critical-path time each operator claims.
OPERATOR_CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "transfer": ("transfer",),
    "partition-write": ("scratch-write",),
    "bucket-read": ("scratch-read",),
    "hash-build": ("cpu-build",),
    "probe": ("cpu-probe",),
}

#: Synthetic operator absorbing critical-path time no model term claims
#: (waits, control-loop scheduling, fault handling).  Its predicted time
#: is zero by construction — the analytic models idealise it away.
COORDINATION = "coordination"


@dataclass(frozen=True)
class PlannedOperator:
    """One model term of one algorithm, before execution."""

    name: str
    #: predicted seconds for this term (the Section 5 model)
    predicted_s: float
    #: work volume the model charges for, in :attr:`unit` units
    predicted_units: float
    unit: str


def planned_operators(
    algorithm: str, params: CostParameters, *, pipelined: bool = False
) -> List[PlannedOperator]:
    """The operator rows one algorithm's cost model decomposes into.

    This is the single source of operator names and ordering shared by
    ``repro explain`` (predicted-only) and :func:`profile_execution`
    (predicted + observed), so the two surfaces can never drift apart.
    """
    if algorithm == "indexed-join":
        cost = indexed_join_cost(params, pipelined=pipelined)
        return [
            PlannedOperator(
                "transfer", cost.transfer, float(params.bytes_total), "bytes"
            ),
            PlannedOperator(
                "hash-build", cost.cpu_build, float(params.T), "records"
            ),
            PlannedOperator(
                "probe", cost.cpu_lookup, float(params.n_e * params.c_S),
                "records",
            ),
        ]
    if algorithm == "grace-hash":
        cost = grace_hash_cost(params)
        return [
            PlannedOperator(
                "transfer", cost.transfer, float(params.bytes_total), "bytes"
            ),
            PlannedOperator(
                "partition-write", cost.write, float(params.bytes_total),
                "bytes",
            ),
            PlannedOperator(
                "bucket-read", cost.read, float(params.bytes_total), "bytes"
            ),
            PlannedOperator(
                "hash-build", cost.cpu_build, float(params.T), "records"
            ),
            PlannedOperator(
                "probe", cost.cpu_lookup, float(params.T), "records"
            ),
        ]
    raise ValueError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class OperatorProfile:
    """One operator row: a model term annotated with execution evidence."""

    name: str
    #: model prediction for this term (0 for :data:`COORDINATION`)
    predicted_s: float
    #: critical-path seconds attributed to this operator's span
    #: categories — these telescope to the makespan across the profile
    observed_s: float
    #: summed per-joiner busy seconds (exceeds ``observed_s`` under
    #: parallelism; 0 for :data:`COORDINATION`)
    busy_s: float
    #: work volume the model charged for / the execution performed
    predicted_units: float
    observed_units: float
    unit: str

    @property
    def drift_ratio(self) -> Optional[float]:
        """observed/predicted seconds; ``None`` when nothing was predicted."""
        if self.predicted_s <= 0:
            return None
        return self.observed_s / self.predicted_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "predicted_s": self.predicted_s,
            "observed_s": self.observed_s,
            "busy_s": self.busy_s,
            "predicted_units": self.predicted_units,
            "observed_units": self.observed_units,
            "unit": self.unit,
            "drift_ratio": self.drift_ratio,
        }


@dataclass(frozen=True)
class PlanProfile:
    """A plan annotated with per-operator execution evidence."""

    algorithm: str
    pipelined: bool
    fingerprint: str
    predicted_total_s: float
    #: the run's makespan (``report.total_time``)
    observed_total_s: float
    counterfactual_algorithm: str
    counterfactual_predicted_s: float
    #: whether the two models were within the toss-up margin of each other
    tossup: bool
    operators: Tuple[OperatorProfile, ...]

    @property
    def attributed_s(self) -> float:
        """Summed operator observed time; telescopes to the makespan."""
        return math.fsum(op.observed_s for op in self.operators)

    @property
    def drift_ratio(self) -> Optional[float]:
        if self.predicted_total_s <= 0:
            return None
        return self.observed_total_s / self.predicted_total_s

    @property
    def regret_s(self) -> float:
        """Planner regret: this QES's observed time minus the model time
        of the QES the planner would otherwise have chosen.  Positive
        means the counterfactual's *model* promised a faster run."""
        return self.observed_total_s - self.counterfactual_predicted_s

    def drift_records(self) -> List[DriftRecord]:
        """Lower modelled operator rows to drift-store records."""
        return [
            DriftRecord(
                fingerprint=self.fingerprint,
                algorithm=self.algorithm,
                term=op.name,
                predicted_s=op.predicted_s,
                observed_s=op.observed_s,
                tossup=self.tossup,
            )
            for op in self.operators
            if op.predicted_s > 0
        ]

    def render(self) -> str:
        """Deterministic annotated plan tree (the ``--analyze`` output)."""
        mode = " (pipelined)" if self.pipelined else ""
        head_ratio = self.drift_ratio
        head = (
            f"{self.algorithm}{mode}: predicted {self.predicted_total_s:.4f}s,"
            f" observed {self.observed_total_s:.4f}s"
        )
        if head_ratio is not None:
            head += f" [drift {head_ratio:.2f}x]"
        lines = [head]
        for i, op in enumerate(self.operators):
            branch = "└─" if i == len(self.operators) - 1 else "├─"
            if op.predicted_s > 0:
                pred = f"pred {op.predicted_s:9.4f}s"
                drift = f"drift {op.drift_ratio:.2f}x"
            else:
                pred = f"pred {'—':>9} "
                drift = "drift  —  "
            line = (
                f"{branch} {op.name:<15} {pred}  obs {op.observed_s:9.4f}s"
                f"  {drift}"
            )
            if op.unit:
                line += (
                    f"  busy {op.busy_s:9.4f}s"
                    f"  {int(op.observed_units):,}/{int(op.predicted_units):,}"
                    f" {op.unit}"
                )
            lines.append(line)
        lines.append(
            f"   observed operator total {self.attributed_s:.4f}s"
            f" = makespan {self.observed_total_s:.4f}s"
        )
        lines.append(
            f"   counterfactual {self.counterfactual_algorithm} model:"
            f" {self.counterfactual_predicted_s:.4f}s"
            f" (regret {self.regret_s:+.4f}s)"
        )
        if self.tossup:
            lines.append(
                "   note: toss-up — models within 5%; drift can flip the "
                "planner's choice"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "pipelined": self.pipelined,
            "fingerprint": self.fingerprint,
            "predicted_total_s": self.predicted_total_s,
            "observed_total_s": self.observed_total_s,
            "attributed_s": self.attributed_s,
            "drift_ratio": self.drift_ratio,
            "counterfactual_algorithm": self.counterfactual_algorithm,
            "counterfactual_predicted_s": self.counterfactual_predicted_s,
            "regret_s": self.regret_s,
            "tossup": self.tossup,
            "operators": [op.to_dict() for op in self.operators],
        }


#: Report-level fallbacks for observed work volumes, used when a run was
#: executed without the ``op.*`` metrics counters (untraced categories).
_REPORT_UNIT_FALLBACK = {
    "transfer": lambda r: float(r.bytes_from_storage),
    "partition-write": lambda r: float(r.bytes_scratch_written),
    "bucket-read": lambda r: float(r.bytes_scratch_read),
    "hash-build": lambda r: float(r.kernel.builds),
    "probe": lambda r: float(r.kernel.probes),
}


def _observed_units(report: ExecutionReport, name: str, unit: str) -> float:
    metric = f"op.{name}.{unit}"
    tel = report.telemetry
    if tel is not None and metric in tel.metrics:
        return float(tel.metrics.get(metric).value)
    return _REPORT_UNIT_FALLBACK[name](report)


def _busy_map(report: ExecutionReport) -> Dict[str, float]:
    agg = report.aggregate_phases()
    return {
        "transfer": agg.transfer,
        "partition-write": agg.scratch_write,
        "bucket-read": agg.scratch_read,
        "hash-build": agg.cpu_build,
        "probe": agg.cpu_lookup,
    }


def profile_execution(
    params: CostParameters,
    report: ExecutionReport,
    *,
    pipelined: bool = False,
    label: str = "",
) -> PlanProfile:
    """Build the :class:`PlanProfile` for one telemetry-enabled execution.

    ``params`` must be the cost parameters the run was planned with;
    ``pipelined`` applies to the Indexed Join's cost model only (Grace
    Hash has no pipelined mode, so pass the report's actual mode).
    Raises :class:`ValueError` if the report carries no critical path —
    profiling needs the span stream of a traced run.
    """
    if report.critical_path is None:
        raise ValueError(
            "plan profiling needs a telemetry-enabled run "
            "(report.critical_path is unset; re-run with telemetry=True)"
        )
    algorithm = report.algorithm
    pipe = pipelined and algorithm == "indexed-join"
    ij: CostBreakdown = indexed_join_cost(params, pipelined=pipe)
    gh: CostBreakdown = grace_hash_cost(params)
    chosen, other = (ij, gh) if algorithm == "indexed-join" else (gh, ij)
    counterfactual = (
        "grace-hash" if algorithm == "indexed-join" else "indexed-join"
    )

    by_cat = report.critical_path.by_category()
    busy = _busy_map(report)
    claimed = set()
    operators: List[OperatorProfile] = []
    for op in planned_operators(algorithm, params, pipelined=pipe):
        cats = OPERATOR_CATEGORIES[op.name]
        claimed.update(cats)
        operators.append(
            OperatorProfile(
                name=op.name,
                predicted_s=op.predicted_s,
                observed_s=math.fsum(by_cat.get(c, 0.0) for c in cats),
                busy_s=busy[op.name],
                predicted_units=op.predicted_units,
                observed_units=_observed_units(report, op.name, op.unit),
                unit=op.unit,
            )
        )
    coordination = math.fsum(
        seconds for cat, seconds in by_cat.items() if cat not in claimed
    )
    operators.append(
        OperatorProfile(
            name=COORDINATION,
            predicted_s=0.0,
            observed_s=coordination,
            busy_s=0.0,
            predicted_units=0.0,
            observed_units=0.0,
            unit="",
        )
    )
    return PlanProfile(
        algorithm=algorithm,
        pipelined=pipe,
        fingerprint=config_fingerprint(params, pipelined=pipe, label=label),
        predicted_total_s=chosen.total,
        observed_total_s=report.total_time,
        counterfactual_algorithm=counterfactual,
        counterfactual_predicted_s=other.total,
        tossup=models_are_tossup(ij.total, gh.total),
        operators=tuple(operators),
    )
