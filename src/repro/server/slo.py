"""Per-tenant SLO objectives, error budgets, and burn-rate alerts.

An :class:`SLOObjective` states what a tenant was promised: an
availability target (fraction of queries that must end well) and an
optional latency target (a completed query slower than it still counts
against the budget — it completed, but not usefully).  The *error
budget* is the allowed bad fraction, ``1 - availability``.

:class:`SLOTracker` consumes terminal dispositions as the server
finalises queries and keeps, per tenant, a timeline of good/bad events
on the simulated clock.  Alerting follows the standard multi-window
burn-rate scheme: the *burn rate* over a trailing window is the
window's bad fraction divided by the budget (burn 1.0 = spending the
budget exactly as fast as allowed), and an alert fires only when
**both** a short and a long trailing window burn above the threshold —
the short window makes the alert responsive, the long window stops a
single bad event from paging.  Alerts are edge-triggered: one
:class:`BurnAlert` per excursion, closed with ``cleared_at`` when the
condition first stops holding.

Everything is evaluated inside the server's finalisation path, at
simulated instants, from deterministic inputs — so the alert history is
byte-identical across replays, and "the alert fired at t=6.25" is a
reproducible fact about the workload, not about the machine that ran it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .resilience import COMPLETED, DISPOSITIONS

__all__ = ["SLOObjective", "BurnAlert", "SLOTracker"]


@dataclass(frozen=True)
class SLOObjective:
    """A tenant's promise: availability target plus optional latency cap.

    ``availability`` must lie strictly inside (0, 1): 1.0 would leave a
    zero error budget (every burn rate infinite), and the tenant-mix
    JSON should say so explicitly rather than by limiting behaviour.
    """

    availability: float = 0.99
    latency_target: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.availability < 1.0:
            raise ValueError(
                f"availability {self.availability} outside (0, 1)"
            )
        if self.latency_target is not None and not (
            math.isfinite(self.latency_target) and self.latency_target > 0
        ):
            raise ValueError(
                f"latency target {self.latency_target} must be positive and finite"
            )

    @property
    def budget_fraction(self) -> float:
        """Allowed bad fraction: ``1 - availability``."""
        return 1.0 - self.availability

    def is_good(self, disposition: str, latency: Optional[float]) -> bool:
        """Did this terminal event honour the objective?"""
        if disposition not in DISPOSITIONS:
            raise ValueError(f"unknown disposition {disposition!r}")
        if disposition != COMPLETED:
            return False
        if self.latency_target is None or latency is None:
            return True
        return latency <= self.latency_target

    def to_dict(self) -> Dict[str, Any]:
        return {
            "availability": self.availability,
            "latency_target": self.latency_target,
        }


@dataclass
class BurnAlert:
    """One edge-triggered burn-rate excursion for a tenant."""

    tenant: str
    fired_at: float
    short_burn: float
    long_burn: float
    threshold: float
    short_window: float
    long_window: float
    cleared_at: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "fired_at": self.fired_at,
            "short_burn": self.short_burn,
            "long_burn": self.long_burn,
            "threshold": self.threshold,
            "short_window": self.short_window,
            "long_window": self.long_window,
            "cleared_at": self.cleared_at,
        }


@dataclass
class _TenantBudget:
    """Good/bad event timeline and running totals for one tenant."""

    objective: SLOObjective
    events: List[Tuple[float, bool]] = field(default_factory=list)
    good: int = 0
    bad: int = 0
    active_alert: Optional[BurnAlert] = None

    def burn_rate(self, t: float, window: float) -> Tuple[float, int]:
        """(burn rate, event count) over the trailing ``(t-window, t]``."""
        lo = t - window
        total = 0
        bad = 0
        for at, ok in reversed(self.events):
            if at <= lo:
                break
            total += 1
            if not ok:
                bad += 1
        if total == 0:
            return 0.0, 0
        return (bad / total) / self.objective.budget_fraction, total


class SLOTracker:
    """Error-budget accounting and multi-window burn-rate alerting.

    ``objectives`` maps tenant name → :class:`SLOObjective`; tenants
    without an objective are not tracked.  ``record`` returns the events
    the caller should surface: ``("alert", BurnAlert)`` when an alert
    fires and ``("alert_clear", BurnAlert)`` when one clears, so the
    server can mirror them into the ops log at the same simulated
    instant.
    """

    #: the burn rate both windows must reach, as a multiple of the
    #: budget-neutral burn
    THRESHOLD = 2.0
    #: events the long window must hold before an alert can fire
    MIN_EVENTS = 4

    def __init__(
        self,
        objectives: Mapping[str, SLOObjective],
        *,
        short_window: float = 5.0,
        long_window: float = 20.0,
    ) -> None:
        if short_window <= 0 or long_window <= 0:
            raise ValueError("burn windows must be positive")
        if short_window > long_window:
            raise ValueError(
                f"short window {short_window} exceeds long window {long_window}"
            )
        self.short_window = short_window
        self.long_window = long_window
        self._budgets = {
            tenant: _TenantBudget(objective)
            for tenant, objective in objectives.items()
        }
        self.alerts: List[BurnAlert] = []

    def tenants(self) -> List[str]:
        return sorted(self._budgets)

    def record(
        self,
        t: float,
        tenant: str,
        disposition: str,
        latency: Optional[float] = None,
    ) -> List[Tuple[str, BurnAlert]]:
        """Account one terminal disposition; returns fired/cleared alerts."""
        budget = self._budgets.get(tenant)
        if budget is None:
            return []
        ok = budget.objective.is_good(disposition, latency)
        budget.events.append((t, ok))
        if ok:
            budget.good += 1
        else:
            budget.bad += 1

        short_burn, _ = budget.burn_rate(t, self.short_window)
        long_burn, long_count = budget.burn_rate(t, self.long_window)
        burning = (
            long_count >= self.MIN_EVENTS
            and short_burn >= self.THRESHOLD
            and long_burn >= self.THRESHOLD
        )
        out: List[Tuple[str, BurnAlert]] = []
        if burning and budget.active_alert is None:
            alert = BurnAlert(
                tenant=tenant,
                fired_at=t,
                short_burn=short_burn,
                long_burn=long_burn,
                threshold=self.THRESHOLD,
                short_window=self.short_window,
                long_window=self.long_window,
            )
            budget.active_alert = alert
            self.alerts.append(alert)
            out.append(("alert", alert))
        elif not burning and budget.active_alert is not None:
            alert = budget.active_alert
            alert.cleared_at = t
            budget.active_alert = None
            out.append(("alert_clear", alert))
        return out

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant budget accounting (name-sorted, serialisable)."""
        out: Dict[str, Dict[str, Any]] = {}
        for tenant in self.tenants():
            budget = self._budgets[tenant]
            total = budget.good + budget.bad
            error_rate = budget.bad / total if total else 0.0
            fraction = budget.objective.budget_fraction
            out[tenant] = {
                "objective": budget.objective.to_dict(),
                "events": total,
                "good": budget.good,
                "bad": budget.bad,
                "error_rate": error_rate,
                "budget_fraction": fraction,
                "budget_consumed": error_rate / fraction,
                "alerts": sum(1 for a in self.alerts if a.tenant == tenant),
                "alert_active": budget.active_alert is not None,
            }
        return out

    def alert_payload(self) -> List[Dict[str, Any]]:
        """Chronological alert history (fire order)."""
        return [alert.to_dict() for alert in self.alerts]
