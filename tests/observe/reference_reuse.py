"""The reuse analysis the vectorised one is tested against.

A tuple-per-event recorder whose analysis walks the retained tuples: the
miss-size back-fill in two dict passes, Mattson byte-weighted stack
distances through a Fenwick tree over last-access positions, one
sorted-list curve per access string and a dict per working-set window.
It shares the production module's capacity fractions and nothing of
its trace layout or kernel, so the two analyses can be
compared byte for byte on the same recorded serve.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.observe.reuse import CAPACITY_FRACTIONS
from repro.telemetry.timeseries import window_edges

_TRACED_OPS = frozenset({"hit", "miss", "insert", "drop"})


class _Fenwick:
    """Prefix sums over trace positions; holds each key's resident bytes
    at its most recent access position (0 elsewhere)."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self._n:
            self._tree[i] += delta
            i += i & -i

    def prefix(self, i: int) -> int:
        """Sum of positions ``0..i`` inclusive (``i < 0`` -> 0)."""
        total = 0
        i += 1
        while i > 0:
            total += self._tree[i]
            i -= i & -i
        return total


def reuse_distances(
    trace: Sequence[Tuple[str, Hashable, int]],
) -> List[Optional[int]]:
    """Byte-weighted LRU stack distances for one cache's access string.

    ``trace`` items are ``("access", key, nbytes)`` or ``("drop", key,
    0)`` in trace order; ``nbytes`` is the size the entry has once this
    access is served.  Returns one distance per *access* item: ``None``
    for a compulsory miss (first touch, or first touch after a drop),
    otherwise the resident bytes of the key at its previous access plus
    the bytes of every distinct key touched in between.  Under LRU the
    access hits a cache of capacity ``C`` iff its distance is ``<= C``,
    so one pass prices every capacity at once — that is Mattson's stack
    algorithm, byte-weighted for variable-size entries, in O(n log n)
    via a Fenwick tree over last-access positions.
    """
    items = list(trace)
    bit = _Fenwick(len(items))
    last_pos: Dict[Hashable, int] = {}
    last_size: Dict[Hashable, int] = {}
    out: List[Optional[int]] = []
    for i, (kind, key, nbytes) in enumerate(items):
        if kind == "drop":
            pos = last_pos.pop(key, None)
            if pos is not None:
                bit.add(pos, -last_size.pop(key))
            continue
        if kind != "access":
            raise ValueError(f"unknown trace op {kind!r}")
        if nbytes < 0:
            raise ValueError("access bytes must be >= 0")
        pos = last_pos.get(key)
        if pos is None:
            out.append(None)
        else:
            resident = last_size[key]
            between = bit.prefix(i - 1) - bit.prefix(pos)
            out.append(resident + between)
            bit.add(pos, -resident)
        bit.add(i, nbytes)
        last_pos[key] = i
        last_size[key] = nbytes
    return out


def miss_ratio_curve(
    distances: Sequence[Optional[int]], capacities: Sequence[int]
) -> List[Dict[str, Any]]:
    """Evaluate the what-if miss ratio at each capacity.

    Monotone non-increasing in capacity by construction: a distance that
    fits in ``C`` fits in every larger capacity.
    """
    finite = sorted(d for d in distances if d is not None)
    total = len(distances)
    points = []
    for cap in sorted({int(c) for c in capacities}):
        hits = _count_at_most(finite, cap)
        misses = total - hits
        points.append({
            "capacity_bytes": cap,
            "accesses": total,
            "hits": hits,
            "misses": misses,
            "miss_ratio": misses / total if total else 0.0,
        })
    return points


def _count_at_most(sorted_values: List[int], bound: int) -> int:
    lo, hi = 0, len(sorted_values)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_values[mid] <= bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


def working_set_windows(
    events: Sequence[Tuple[float, str, Hashable, int]],
    width: float,
    t_end: float,
) -> List[Dict[str, Any]]:
    """Windowed working-set estimate over timestamped accesses.

    ``events`` are ``(t, op, key, nbytes)`` with ``op`` in ``hit``/
    ``miss``; the window grid is the observatory's own
    (:func:`repro.telemetry.timeseries.window_edges`, final window
    closed), so per-window access counts sum to the trace total exactly
    — the reconciliation the validator checks.
    """
    edges = window_edges(width, t_end)
    buckets: List[Dict[str, Any]] = [
        {"hits": 0, "misses": 0, "sizes": {}} for _ in edges
    ]
    for t, op, key, nbytes in events:
        index = min(int(t / width), len(edges) - 1)
        bucket = buckets[index]
        bucket["hits" if op == "hit" else "misses"] += 1
        bucket["sizes"][key] = nbytes
    out = []
    for (t0, t1), bucket in zip(edges, buckets):
        sizes = bucket["sizes"]
        out.append({
            "t0": t0,
            "t1": t1,
            "accesses": bucket["hits"] + bucket["misses"],
            "hits": bucket["hits"],
            "misses": bucket["misses"],
            "distinct_keys": len(sizes),
            "distinct_bytes": sum(sizes.values()),
        })
    return out


class FrozenAccessTraceRecorder:
    """Passive per-entry access trace over the server's shared caches.

    One recorder watches every compute node's cache; each key-granular
    event is stamped with the simulated clock and the query id the
    operation arrived under (the serving view's ``qid``), which the
    server's ``submit`` event later maps to a tenant.  Everything analytical
    — distances, curves, windows — is computed once,
    after the run, from the recorded trace; recording itself is pure
    appending.
    """

    def __init__(self, clock: Callable[[], float], window: float = 1.0):
        self._clock = clock
        self.window = window
        #: node -> [(t, op, key, nbytes, qid)] in simulated-time order
        self._events: Dict[int, List[tuple]] = {}
        #: node -> configured capacity / policy of the watched cache
        self._watched: Dict[int, Dict[str, Any]] = {}
        self._tenants: Dict[int, str] = {}

    # -- recording hooks ----------------------------------------------

    def watch(self, node: int, cache) -> None:
        """Subscribe to ``cache``'s access events as compute ``node``."""
        events = self._events.setdefault(node, [])
        self._watched[node] = {
            "capacity_bytes": cache.capacity_bytes,
            "policy": cache.policy.name,
        }

        def record(op, key, nbytes, qid) -> None:
            if op in _TRACED_OPS:
                events.append((self._clock(), op, key, nbytes, qid))

        cache.subscribe(record)

    def note_query(self, qid: int, tenant: str) -> None:
        """Map a submitted query to its tenant (fed by ``submit`` events)."""
        self._tenants[qid] = tenant

    # -- analysis -----------------------------------------------------

    def _resolved(self, node: int) -> List[tuple]:
        """The node's trace with miss sizes back-filled.

        A miss event carries no size (nothing resident); the size it
        *will* occupy is taken from the next insert/hit of the same key,
        falling back to the last size seen before it, then 0 (a query
        that died between its miss and its put).
        """
        events = self._events.get(node, [])
        next_size: Dict[Hashable, int] = {}
        fills: List[Optional[int]] = [None] * len(events)
        for i in range(len(events) - 1, -1, -1):
            _, op, key, nbytes, _ = events[i]
            if op == "miss":
                fills[i] = next_size.get(key)
            elif nbytes is not None:
                next_size[key] = nbytes
        out = []
        prev_size: Dict[Hashable, int] = {}
        for i, (t, op, key, nbytes, qid) in enumerate(events):
            if op == "miss":
                nbytes = fills[i]
                if nbytes is None:
                    nbytes = prev_size.get(key, 0)
            else:
                prev_size[key] = nbytes
            out.append((t, op, key, nbytes, qid))
        return out

    @staticmethod
    def _ops(events: Sequence[tuple]) -> List[Tuple[str, Hashable, int]]:
        """The Mattson access string: gets become accesses, drops reset
        residency, inserts only serve as size sources (every server
        insert follows the miss that already placed the key)."""
        ops = []
        for _, op, key, nbytes, _ in events:
            if op in ("hit", "miss"):
                ops.append(("access", key, nbytes))
            elif op == "drop":
                ops.append(("drop", key, 0))
        return ops

    def capacity_grid(self, footprint: int = 0) -> List[int]:
        """What-if capacities: fractions of the trace's largest per-node
        footprint (where the curve actually bends — a server-sized cache
        usually dwarfs one workload's bytes), plus the configured
        capacity so the curve is checkable against measured counters."""
        capacity = self.configured_capacity()
        base = footprint if footprint > 0 else capacity
        grid = {max(1, int(base * f)) for f in CAPACITY_FRACTIONS}
        grid.add(capacity)
        return sorted(grid)

    def configured_capacity(self) -> int:
        if not self._watched:
            return 0
        return max(w["capacity_bytes"] for w in self._watched.values())

    def analyze(self, makespan: float) -> Dict[str, Any]:
        """Distil the trace into the ``observability.reuse`` payload."""
        nodes = sorted(self._events)
        resolved = {node: self._resolved(node) for node in nodes}
        capacity = self.configured_capacity()
        summary = self._trace_summary(resolved)
        grid = self.capacity_grid(max(
            (n["footprint_bytes"] for n in summary["per_node"]), default=0
        ))

        per_node_points = {
            node: miss_ratio_curve(
                reuse_distances(self._ops(resolved[node])), grid
            )
            for node in nodes
        }
        tenants = sorted(set(self._tenants.values()))
        per_tenant_points = {
            tenant: [
                miss_ratio_curve(
                    reuse_distances(self._tenant_ops(resolved[node], tenant)),
                    grid,
                )
                for node in nodes
            ]
            for tenant in tenants
        }

        windows = working_set_windows(
            [(t, op, (node, key), nbytes)
             for (t, op, key, nbytes, _), node in self._flat(resolved)],
            self.window,
            makespan,
        )

        return {
            "capacity_bytes": capacity,
            "policy": next(
                (w["policy"] for w in self._watched.values()), ""
            ),
            "window_s": self.window,
            "trace": summary,
            "mrc": {
                "global": _sum_curves(list(per_node_points.values()), grid),
                "per_tenant": {
                    tenant: _sum_curves(per_tenant_points[tenant], grid)
                    for tenant in tenants
                },
            },
            "working_set": {"window_s": self.window, "windows": windows},
        }

    # -- analysis internals -------------------------------------------

    def _flat(self, resolved: Dict[int, List[tuple]]):
        for node in sorted(resolved):
            for event in resolved[node]:
                if event[1] in ("hit", "miss"):
                    yield event, node

    def _tenant_ops(
        self, events: Sequence[tuple], tenant: str
    ) -> List[Tuple[str, Hashable, int]]:
        """One tenant's private access string: its own gets, plus every
        drop (an invalidation empties the key for all tenants alike)."""
        ops = []
        for _, op, key, nbytes, qid in events:
            if op in ("hit", "miss"):
                if self._tenants.get(qid) == tenant:
                    ops.append(("access", key, nbytes))
            elif op == "drop":
                ops.append(("drop", key, 0))
        return ops

    def _trace_summary(self, resolved: Dict[int, List[tuple]]) -> Dict[str, Any]:
        per_node = []
        totals = {"accesses": 0, "hits": 0, "misses": 0, "drops": 0}
        footprint = 0
        for node in sorted(resolved):
            counts = {"accesses": 0, "hits": 0, "misses": 0, "drops": 0}
            sizes: Dict[Hashable, int] = {}
            for _, op, key, nbytes, _ in resolved[node]:
                if op in ("hit", "miss"):
                    counts["accesses"] += 1
                    counts["hits" if op == "hit" else "misses"] += 1
                    sizes[key] = nbytes
                elif op == "drop":
                    counts["drops"] += 1
            footprint += sum(sizes.values())
            per_node.append({
                "node": node,
                "distinct_keys": len(sizes),
                "footprint_bytes": sum(sizes.values()),
                **counts,
            })
            for name in totals:
                totals[name] += counts[name]
        return {
            **totals,
            "distinct_keys": len({str(e[2]) for events in resolved.values() for e in events}),
            "footprint_bytes": footprint,
            "per_node": per_node,
        }


def _sum_curves(
    curves: Sequence[List[Dict[str, Any]]], grid: Sequence[int]
) -> List[Dict[str, Any]]:
    """Point-wise sum of per-node (or per-tenant-per-node) curves: the
    what-if where every node's cache has the same capacity."""
    out = []
    for i, cap in enumerate(sorted({int(c) for c in grid})):
        accesses = sum(c[i]["accesses"] for c in curves) if curves else 0
        hits = sum(c[i]["hits"] for c in curves) if curves else 0
        misses = accesses - hits
        out.append({
            "capacity_bytes": cap,
            "accesses": accesses,
            "hits": hits,
            "misses": misses,
            "miss_ratio": misses / accesses if accesses else 0.0,
        })
    return out

