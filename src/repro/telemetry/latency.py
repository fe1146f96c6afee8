"""Exact latency accounting for the query server.

The metrics registry's histograms bucket observations (fixed bounds), so
quantiles read from them are bucket upper-bounds, not latencies the
simulation actually produced.  Per-tenant SLO reporting wants the *exact*
order statistics — and they must be byte-identical across runs for the
determinism suite — so the server records raw per-query latencies here
and computes nearest-rank percentiles over the sorted values.

Nearest-rank (no interpolation) keeps every reported quantile a value
that actually occurred, which is both the conventional SLO reading and
immune to float-rounding differences an interpolated estimate could
introduce.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["percentile", "goodput", "LatencyTracker"]


def goodput(completed: int, makespan: float) -> float:
    """Completed queries per simulated second (0 for an empty makespan).

    The server's throughput measure under failure and overload: shed,
    failed and deadline-expired queries contribute nothing, so goodput
    is what the shedding policies trade latency against.
    """
    if completed < 0:
        raise ValueError(f"negative completed count {completed}")
    if makespan < 0:
        raise ValueError(f"negative makespan {makespan}")
    return completed / makespan if makespan > 0 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    The convention, precisely:

    * ``q`` is read at 0.01-percentile granularity — it is scaled by 100
      and truncated to an integer, so ``q=99.99`` and ``q=99.994`` are
      the same question and finer digits never move the rank.
    * The rank is ``ceil(q/100 * n)`` computed in exact integer
      arithmetic, clamped to ``[1, n]`` — the clamp makes ``q=0`` the
      minimum (rank 1) rather than an out-of-range rank 0.
    * The result is ``sorted(values)[rank - 1]``: always a value that
      actually occurred.  ``q=100`` is the maximum; ``q=50`` over an
      even count is the *lower* middle value (nearest-rank does not
      interpolate); a single sample answers every ``q`` with itself;
      duplicates are counted with multiplicity, so over
      ``[1, 1, 1, 9]`` the p75 is 1 and only p76 and above reach 9.

    Raises on an empty sequence — a tenant with no completed queries
    has no latency distribution to summarise.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    ordered = sorted(values)
    # integer ceil of q*n/100 without float division (exact for any n)
    rank = max(1, -(-(int(q * 100) * len(ordered)) // 10000))
    return ordered[min(rank, len(ordered)) - 1]


class LatencyTracker:
    """Raw latency samples grouped by key (tenant, query kind, ...)."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}

    def record(self, key: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative latency {seconds} for {key!r}")
        self._samples.setdefault(key, []).append(seconds)

    def keys(self) -> List[str]:
        return sorted(self._samples)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-key exact stats: count, mean, p50, p99, max.

        Keys are emitted sorted so the summary serialises identically
        across runs regardless of completion order.
        """
        out: Dict[str, Dict[str, float]] = {}
        for key in self.keys():
            vals = self._samples[key]
            out[key] = {
                "count": float(len(vals)),
                "mean": sum(vals) / len(vals),
                "p50": percentile(vals, 50),
                "p99": percentile(vals, 99),
                "max": max(vals),
            }
        return out
