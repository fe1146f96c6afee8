"""Seeded query-arrival processes for the multi-tenant query server.

A view server is only meaningfully "efficient" under the workloads the
paper motivates: many clients issuing mixed range scans, joins and
aggregates against the same registered tables.  This module turns a set
of per-tenant specifications into one deterministic, time-ordered stream
of :class:`QueryArrival` records.

Two arrival processes cover the evaluation shapes:

* ``poisson`` — independent arrivals; inter-arrival gaps are exponential
  with the tenant's mean rate (the classic open-system client).
* ``bursty`` — heavy-tailed (Pareto) gaps with the *same* mean rate:
  most gaps are far shorter than the exponential's, interleaved with
  occasional very long silences, so arrivals clump into bursts that
  stress the admission queue and the shared cache at once.

Every draw is a counter-based :mod:`repro.core.rng` splitmix64 value —
no stateful RNG, no wall clock — so a workload is a pure function of
``(tenants, seed)`` and replays byte-identically everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.rng import splitmix64, uniform

__all__ = [
    "QueryArrival",
    "TenantSpec",
    "poisson_gaps",
    "bursty_gaps",
    "generate_workload",
]

_KINDS = ("scan", "join", "aggregate")
_PROCESSES = ("poisson", "bursty")
_TENANT_KEYS = frozenset(
    ("name", "rate", "num_queries", "mix", "process", "alpha", "deadline", "slo")
)


@dataclass(frozen=True)
class QueryArrival:
    """One query in the stream, before planning.

    ``seed`` is a per-query splitmix64 value the server uses for the
    query's own parameter draws (range box, join restriction), keeping
    those independent of how many queries other tenants issued.

    ``deadline`` is the tenant's per-query SLO in simulated seconds from
    submission (``None`` = no deadline): the server races it against the
    admission wait and the execution, and a query that loses the race is
    unwound and recorded ``deadline_exceeded``.
    """

    qid: int
    tenant: str
    kind: str
    at: float
    seed: int
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown query kind {self.kind!r} (know {_KINDS})")
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(f"arrival time must be finite and >= 0, got {self.at}")
        if self.deadline is not None and not _positive(self.deadline):
            raise ValueError(f"deadline must be positive and finite, got {self.deadline}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival process and query mix.

    ``mix`` maps query kinds to non-negative weights (normalised
    internally); ``rate`` is the mean arrival rate in queries per
    simulated second for both processes, so swapping ``poisson`` for
    ``bursty`` changes the *shape* of the stream, not its volume.
    ``alpha`` is the Pareto tail index of the bursty process — smaller
    means heavier bursts; must exceed 1 so the mean gap exists.
    ``deadline`` is an optional per-query SLO (simulated seconds from
    submission) stamped on every arrival the tenant issues.

    ``slo_availability`` / ``slo_latency`` are the tenant's *service*
    objectives (an availability target in (0, 1) and an optional latency
    cap), declared under a ``"slo"`` object in the tenant-mix JSON.  The
    workload generator ignores them — they parameterise the server's
    error-budget accounting and burn-rate alerting
    (:mod:`repro.server.slo`), not the arrival stream.
    """

    name: str
    rate: float
    num_queries: int
    mix: Tuple[Tuple[str, float], ...] = (("scan", 1.0),)
    process: str = "poisson"
    alpha: float = 1.5
    deadline: Optional[float] = None
    slo_availability: Optional[float] = None
    slo_latency: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if not _positive(self.rate):
            raise ValueError(
                f"tenant {self.name!r}: rate must be positive and finite, got {self.rate}"
            )
        if self.num_queries < 0:
            raise ValueError(f"tenant {self.name!r}: num_queries must be >= 0")
        if self.process not in _PROCESSES:
            raise ValueError(
                f"tenant {self.name!r}: unknown process {self.process!r} "
                f"(know {_PROCESSES})"
            )
        if not (math.isfinite(self.alpha) and self.alpha > 1.0):
            raise ValueError(
                f"tenant {self.name!r}: alpha must be finite and > 1 (finite "
                f"mean gap), got {self.alpha}"
            )
        if self.deadline is not None and not _positive(self.deadline):
            raise ValueError(
                f"tenant {self.name!r}: deadline must be positive and finite, "
                f"got {self.deadline}"
            )
        if self.slo_availability is not None and not (
            0.0 < self.slo_availability < 1.0
        ):
            raise ValueError(
                f"tenant {self.name!r}: slo availability "
                f"{self.slo_availability} outside (0, 1)"
            )
        if self.slo_latency is not None and not _positive(self.slo_latency):
            raise ValueError(
                f"tenant {self.name!r}: slo latency must be positive and finite, "
                f"got {self.slo_latency}"
            )
        if not self.mix:
            raise ValueError(f"tenant {self.name!r}: empty query mix")
        total = 0.0
        for kind, weight in self.mix:
            if kind not in _KINDS:
                raise ValueError(
                    f"tenant {self.name!r}: unknown kind {kind!r} (know {_KINDS})"
                )
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"tenant {self.name!r}: mix weight on {kind!r} must be finite "
                    f"and >= 0, got {weight}"
                )
            total += weight
        if total <= 0:
            raise ValueError(f"tenant {self.name!r}: mix weights sum to zero")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TenantSpec":
        """Build from a JSON-ish mapping (the CLI's tenant-mix spec).

        A ``mix`` given as a mapping is ordered by kind name so the spec
        file's key order can never change the workload.  A key this does
        not read is an error, not a tenant that quietly got the default.
        """
        if not isinstance(data, Mapping):
            raise TypeError(f"not an object: {data!r}")
        unknown = sorted(set(data) - _TENANT_KEYS)
        if unknown:
            raise ValueError(f"unknown keys {unknown} (know {sorted(_TENANT_KEYS)})")
        mix = data.get("mix", {"scan": 1.0})
        if isinstance(mix, Mapping):
            mix_t = tuple(sorted((str(k), _weight(k, v)) for k, v in mix.items()))
        elif isinstance(mix, (list, tuple)) and all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in mix
        ):
            mix_t = tuple((str(k), _weight(k, v)) for k, v in mix)
        else:
            raise ValueError(
                f"mix must be an object or a list of [kind, weight] pairs, got {mix!r}"
            )
        num_queries = _number(data.get("num_queries", 0), "num_queries")
        try:
            whole = int(num_queries) == num_queries
        except (OverflowError, TypeError, ValueError):  # inf, null, nan
            whole = False
        if not whole:
            raise ValueError(f"num_queries must be a whole number, got {num_queries!r}")
        raw_deadline = data.get("deadline")
        slo = data.get("slo")
        if slo is None:
            slo = {}
        elif not isinstance(slo, Mapping):
            raise ValueError(f"tenant slo must be an object, got {slo!r}")
        unknown = sorted(set(slo) - {"availability", "latency"})
        if unknown:
            raise ValueError(f"unknown slo keys {unknown}")
        name = data["name"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"name must be a non-empty string, got {name!r}")
        return cls(
            name=name,
            rate=float(_number(data.get("rate", 1.0), "rate")),
            num_queries=int(num_queries),
            mix=mix_t,
            process=str(data.get("process", "poisson")),
            alpha=float(_number(data.get("alpha", 1.5), "alpha")),
            deadline=None if raw_deadline is None else float(_number(raw_deadline, "deadline")),
            slo_availability=(
                float(_number(slo["availability"], "slo availability"))
                if "availability" in slo else None
            ),
            slo_latency=(
                float(_number(slo["latency"], "slo latency")) if "latency" in slo else None
            ),
        )


def _number(value, what: str):
    """``value``, refused when it is a JSON boolean or string: ``float``
    and ``int`` would quietly read ``true`` as 1 and ``"2"`` as 2."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return value


def _weight(kind, value) -> float:
    return float(_number(value, f"mix weight on {kind!r}"))


def _positive(x: float) -> bool:
    """``x > 0`` and finite: NaN and infinities are refused, not served."""
    return math.isfinite(x) and x > 0


def poisson_gaps(rate: float, n: int, seed: int) -> List[float]:
    """``n`` exponential inter-arrival gaps with mean ``1/rate``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    out: List[float] = []
    for i in range(n):
        u = uniform(seed, i)
        # 1-u is in (0, 1]; log is finite for every splitmix64 draw
        out.append(-math.log(1.0 - u) / rate)
    return out


def bursty_gaps(rate: float, n: int, seed: int, alpha: float = 1.5) -> List[float]:
    """``n`` Pareto inter-arrival gaps, scaled to mean ``1/rate``.

    Gap = ``x_m * (1-u)^(-1/alpha)`` with ``x_m = (alpha-1)/(alpha*rate)``
    so the mean matches the Poisson process at the same rate: the typical
    gap is much shorter (``x_m < 1/rate``), producing bursts, while the
    heavy tail supplies the compensating long silences.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1 for a finite mean gap")
    x_m = (alpha - 1.0) / (alpha * rate)
    out: List[float] = []
    for i in range(n):
        u = uniform(seed, i)
        out.append(x_m * (1.0 - u) ** (-1.0 / alpha))
    return out


def _choose_kind(mix: Sequence[Tuple[str, float]], u: float) -> str:
    total = sum(w for _, w in mix)
    acc = 0.0
    for kind, weight in mix:
        acc += weight / total
        if u < acc:
            return kind
    return mix[-1][0]


def generate_workload(
    tenants: Sequence[TenantSpec], seed: int
) -> List[QueryArrival]:
    """Merge every tenant's stream into one time-ordered arrival list.

    Each tenant draws from its own derived seed (indexed by the tenant's
    position in name-sorted order), so adding a tenant or changing one
    tenant's count never perturbs another tenant's draws.  Ties in
    arrival time break by tenant name then per-tenant sequence — fully
    deterministic, independent of dict/iteration order.
    """
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {sorted(names)}")
    pending: List[Tuple[float, str, int, str, int, Optional[float]]] = []
    for tseq, tenant in enumerate(sorted(tenants, key=lambda t: t.name)):
        tseed = splitmix64(seed, tseq)
        if tenant.process == "poisson":
            gaps = poisson_gaps(tenant.rate, tenant.num_queries, tseed)
        else:
            gaps = bursty_gaps(
                tenant.rate, tenant.num_queries, tseed, alpha=tenant.alpha
            )
        at = 0.0
        for i, gap in enumerate(gaps):
            at += gap
            kind = _choose_kind(tenant.mix, uniform(tseed, 10_000 + i))
            qseed = splitmix64(tseed, 20_000 + i)
            pending.append((at, tenant.name, i, kind, qseed, tenant.deadline))
    pending.sort(key=lambda row: (row[0], row[1], row[2]))
    return [
        QueryArrival(
            qid=qid, tenant=name, kind=kind, at=at, seed=qseed, deadline=slo
        )
        for qid, (at, name, _i, kind, qseed, slo) in enumerate(pending)
    ]
