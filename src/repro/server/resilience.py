"""Resilience policies for the query server: dispositions, retries and
load shedding.

The server promises that **every submitted query reaches exactly one
terminal disposition**:

* ``completed`` — executed and answered;
* ``deadline_exceeded`` — its tenant SLO expired (while queued or while
  executing); the query's process tree was aborted and unwound;
* ``shed`` — refused at submission (or evicted from the queue) by
  overload protection, without ever holding a slot;
* ``failed`` — killed by injected faults and not salvaged within its
  retry budget.

Everything here is deterministic: backoff jitter comes from the
counter-based splitmix64 stream of the *query's own seed* (never a
stateful RNG), token buckets refill from the simulated clock, and victim
selection is a pure function of queue contents with explicit
``(predicted_time, qid)`` tie-breaks — the chaos suite replays whole
faulted workloads byte-for-byte on top of these policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.rng import uniform

__all__ = [
    "COMPLETED",
    "DEADLINE_EXCEEDED",
    "SHED",
    "FAILED",
    "DISPOSITIONS",
    "QueryAborted",
    "QueryShed",
    "RetryPolicy",
    "ShedPolicy",
    "RejectNewest",
    "RejectLowestPriority",
    "TokenBucketShedder",
    "ResilienceConfig",
]

COMPLETED = "completed"
DEADLINE_EXCEEDED = "deadline_exceeded"
SHED = "shed"
FAILED = "failed"
#: every terminal disposition a submitted query can reach
DISPOSITIONS = (COMPLETED, DEADLINE_EXCEEDED, SHED, FAILED)

#: splitmix64 counter base for backoff jitter draws, disjoint from the
#: planner's per-query draws (small counters in ``server/queries.py``)
_BACKOFF_DRAW_BASE = 1 << 16


class QueryAborted(Exception):
    """Interrupt *cause* used when the server kills a query's process
    tree (deadline expiry, or draining a beaten attempt before a retry).

    Distinct from the fault-injector causes on purpose: the QES recovery
    paths only mask :class:`~repro.faults.ComputeNodeDown` interrupts —
    an abort must kill the execution, not trigger pair reassignment.
    """

    def __init__(self, qid: int, reason: str):
        super().__init__(f"q{qid} aborted: {reason}")
        self.qid = qid
        self.reason = reason


class QueryShed(Exception):
    """Thrown into a *queued* query's lifecycle when shedding evicts it
    (the reject-lowest-priority policy can pick an already-queued victim,
    not just the incoming query)."""

    def __init__(self, qid: int, reason: str):
        super().__init__(f"q{qid} shed: {reason}")
        self.qid = qid
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter.

    ``budget`` is the number of *retries* (attempts beyond the first);
    ``backoff(seed, attempt)`` is the delay before retry ``attempt``
    (1-based): ``BASE * 2**(attempt-1)`` capped at ``CAP``, scaled by a
    jitter factor in ``[0.5, 1.0)`` drawn from the query seed's
    counter stream — deterministic per (seed, attempt), decorrelated
    across queries so synchronized retry storms cannot form.
    """

    #: the first retry's delay before jitter, in simulated seconds
    BASE = 0.05
    #: the longest delay before jitter, in simulated seconds
    CAP = 2.0

    budget: int = 2

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"retry budget must be >= 0, got {self.budget}")

    def backoff(self, seed: int, attempt: int) -> float:
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        raw = min(self.CAP, self.BASE * (2 ** (attempt - 1)))
        jitter = 0.5 + 0.5 * uniform(seed, _BACKOFF_DRAW_BASE + attempt)
        return raw * jitter


class ShedPolicy:
    """Submission-time load shedding over the admission queue.

    :meth:`victim` is consulted once per submitted query, *before* it is
    enqueued.  It returns ``None`` to admit, or ``(victim_entry, reason)``
    to shed — where the victim is either the incoming entry itself or an
    already-queued entry that must be evicted to make room.
    """

    name: str = ""

    def victim(self, entry, queue, now: float) -> Optional[Tuple[object, str]]:
        raise NotImplementedError


class RejectNewest(ShedPolicy):
    """Bounded queue, drop-tail: a full queue rejects the incoming query."""

    name = "reject-newest"

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit

    def victim(self, entry, queue, now: float):
        if len(queue) >= self.limit:
            return entry, "queue-full"
        return None


class RejectLowestPriority(ShedPolicy):
    """Bounded queue that evicts the least valuable waiter.

    Priority is the planner's cost estimate: when the queue is full the
    query with the *largest* ``predicted_time`` among the waiters and the
    incoming query is shed (ties break on the larger ``qid`` — newest
    goes first).  A cheap incoming query can therefore displace an
    expensive queued one.
    """

    name = "reject-lowest-priority"

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit

    def victim(self, entry, queue, now: float):
        if len(queue) < self.limit:
            return None
        candidates = list(queue.entries())
        candidates.append(entry)
        chosen = max(candidates, key=lambda e: (e.predicted_time, e.qid))
        return chosen, "lowest-priority"


class TokenBucketShedder(ShedPolicy):
    """Per-tenant token bucket: each admission costs one token; buckets
    refill at ``RATE`` tokens per simulated second up to ``BURST``.

    A tenant that outruns its refill rate has its excess queries shed
    while other tenants are untouched — per-tenant isolation that a
    single shared queue bound cannot give.  ``limit`` (optional) adds a
    drop-tail bound on the shared queue as a backstop.
    """

    name = "token-bucket"
    #: tokens refilled per simulated second
    RATE = 1.0
    #: a bucket's capacity, and its level before the tenant's first query
    BURST = 4.0

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._tokens: Dict[str, float] = {}
        self._refilled_at: Dict[str, float] = {}

    def _refill(self, tenant: str, now: float) -> float:
        tokens = self._tokens.get(tenant, self.BURST)
        last = self._refilled_at.get(tenant, 0.0)
        tokens = min(self.BURST, tokens + (now - last) * self.RATE)
        self._tokens[tenant] = tokens
        self._refilled_at[tenant] = now
        return tokens

    def victim(self, entry, queue, now: float):
        if self.limit is not None and len(queue) >= self.limit:
            return entry, "queue-full"
        tokens = self._refill(entry.tenant, now)
        if tokens < 1.0:
            return entry, "token-bucket"
        self._tokens[entry.tenant] = tokens - 1.0
        return None


#: the shed policies by name, the one dispatch on ``shed_policy``
_SHED_POLICIES = {
    policy.name: policy
    for policy in (RejectNewest, RejectLowestPriority, TokenBucketShedder)
}


@dataclass(frozen=True)
class ResilienceConfig:
    """Bundle of the server's resilience knobs.

    The default configuration is maximally permissive — unbounded queue,
    no shedding, two retries — so a server constructed without explicit
    resilience behaves exactly like the pre-resilience server on
    fault-free, deadline-free workloads.

    ``on_unrecoverable`` picks the terminal behaviour when a query
    exhausts its retry budget on an :class:`UnrecoverableFault`:
    ``"fail"`` records the ``failed`` disposition and keeps serving
    (graceful degradation); ``"raise"`` propagates the fault out of
    ``serve()`` as a structured error (the CLI's strict default — a
    fault plan the deployment cannot mask should fail the run loudly,
    never hang it).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    queue_limit: Optional[int] = None
    shed_policy: str = "reject-newest"
    on_unrecoverable: str = "fail"

    def __post_init__(self) -> None:
        if self.shed_policy not in _SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r} "
                f"(know {sorted(_SHED_POLICIES)})"
            )
        if self.on_unrecoverable not in ("fail", "raise"):
            raise ValueError(
                f"on_unrecoverable must be 'fail' or 'raise', "
                f"got {self.on_unrecoverable!r}"
            )
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError(
                f"queue limit must be >= 1, got {self.queue_limit}"
            )

    def build_shedder(self) -> Optional[ShedPolicy]:
        """Instantiate the configured shed policy (``None`` = no shedding).

        The token bucket is active whenever selected; the queue-bound
        policies need ``queue_limit`` set to mean anything.
        """
        if self.queue_limit is None and self.shed_policy != "token-bucket":
            return None
        return _SHED_POLICIES[self.shed_policy](self.queue_limit)
