"""Admission control for the query server.

The server holds every planned-but-not-yet-running query in one admission
queue and releases them into a bounded pool of execution slots.  The
*policy* decides which waiting query gets the next free slot:

* ``fifo`` — arrival order; the neutral baseline.
* ``spf`` — shortest-predicted-first, keyed on the planner's
  ``predicted_time`` (the cost models of Section 5 doubling as service
  estimates).  Classic SJF: minimises mean wait when the estimates are
  honest, starves long joins under sustained load.
* ``fair`` — per-tenant fair share: each tenant has its own FIFO and the
  tenant with the least *accumulated predicted service time* goes next,
  so one tenant's burst cannot monopolise the slots.

Policies are deliberately tiny and deterministic: every pop is a pure
function of the submitted entries (ties break on ``qid`` / tenant name),
never of wall clock or hash order — the determinism suite replays entire
workloads byte-for-byte on top of this.
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Tuple

__all__ = [
    "AdmissionPolicy",
    "FIFOAdmission",
    "ShortestPredictedFirst",
    "FairShareAdmission",
    "make_admission_policy",
]


class AdmissionPolicy:
    """Queue interface the server's dispatcher drives.

    ``submit`` enqueues a waiting entry; ``pop`` returns the next entry
    to admit (``None`` when empty).  Entries expose ``qid``, ``tenant``
    and ``predicted_time``.
    """

    name: str = ""

    def submit(self, entry) -> None:
        raise NotImplementedError

    def pop(self):
        raise NotImplementedError

    def remove(self, entry) -> bool:
        """Withdraw a waiting entry (deadline expiry, load shedding).

        Returns ``True`` if the entry was queued and has been removed,
        ``False`` if it was not in the queue (e.g. already admitted).
        """
        raise NotImplementedError

    def entries(self) -> List:
        """Snapshot of the waiting entries in a deterministic order.

        The shedding policies enumerate this to pick a victim; the order
        is a pure function of the queue contents, never of hash order.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FIFOAdmission(AdmissionPolicy):
    """Admit in arrival order."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque = deque()

    def submit(self, entry) -> None:
        self._queue.append(entry)

    def pop(self):
        if not self._queue:
            return None
        return self._queue.popleft()

    def remove(self, entry) -> bool:
        try:
            self._queue.remove(entry)
        except ValueError:
            return False
        return True

    def entries(self) -> List:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class ShortestPredictedFirst(AdmissionPolicy):
    """Admit the query with the smallest planner-predicted time.

    Ties (identical predictions) break on ``qid`` so the pop order is a
    pure function of the queue contents.
    """

    name = "spf"

    def __init__(self) -> None:
        # kept sorted on the explicit (predicted_time, qid) key; qids are
        # unique, so the entry itself is never compared
        self._queue: List[Tuple[float, int, object]] = []

    def submit(self, entry) -> None:
        insort(self._queue, (entry.predicted_time, entry.qid, entry))

    def pop(self):
        if not self._queue:
            return None
        return self._queue.pop(0)[2]

    def remove(self, entry) -> bool:
        before = len(self._queue)
        self._queue = [item for item in self._queue if item[1] != entry.qid]
        return len(self._queue) != before

    def entries(self) -> List:
        return [item[2] for item in self._queue]

    def __len__(self) -> int:
        return len(self._queue)


class FairShareAdmission(AdmissionPolicy):
    """Per-tenant FIFOs drained in least-served-first order.

    "Served" is the sum of the *predicted* times of the tenant's admitted
    queries — charged at admission, so the accounting is identical across
    runs regardless of how long executions really took.  Among tenants
    with equal service, the lexically smaller name goes first.
    """

    name = "fair"

    def __init__(self) -> None:
        self._queues: "OrderedDict[str, Deque]" = OrderedDict()
        self._served: Dict[str, float] = {}

    def submit(self, entry) -> None:
        tenant = entry.tenant
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._served.setdefault(tenant, 0.0)
        self._queues[tenant].append(entry)

    def pop(self):
        candidates = [t for t, q in self._queues.items() if q]
        if not candidates:
            return None
        tenant = min(candidates, key=lambda t: (self._served[t], t))
        entry = self._queues[tenant].popleft()
        self._served[tenant] += entry.predicted_time
        return entry

    def remove(self, entry) -> bool:
        queue = self._queues.get(entry.tenant)
        if queue is None:
            return False
        try:
            queue.remove(entry)
        except ValueError:
            return False
        return True

    def entries(self) -> List:
        out: List = []
        for tenant in sorted(self._queues):
            out.extend(self._queues[tenant])
        return out

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())


_POLICIES = {
    "fifo": FIFOAdmission,
    "spf": ShortestPredictedFirst,
    "fair": FairShareAdmission,
}


def make_admission_policy(name: str) -> AdmissionPolicy:
    """Factory: ``fifo`` / ``spf`` / ``fair``."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r} (know {sorted(_POLICIES)})"
        ) from None
    return cls()
