"""Named counters, gauges, and fixed-bucket histograms.

Components register instruments against a shared
:class:`MetricsRegistry` by name (``cache.hits``, ``net.transfer_bytes``,
``queue.s0.disk`` ...).  Instruments are deliberately minimal and fully
deterministic: gauges timestamp their samples with the *simulated* clock
value passed by the caller, histograms use fixed bucket boundaries so
two runs of the same workload serialise byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Power-of-4 byte buckets: 1 KiB .. 4 GiB upper edges.
DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = tuple(
    1024.0 * 4**i for i in range(12)
)

#: Power-of-4 latency buckets: 1 ms .. 4194 s upper edges.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = tuple(
    0.001 * 4**i for i in range(12)
)


@dataclass
class Counter:
    """Monotonic event count (optionally weighted)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Point-in-time level sampled over simulated time.

    ``set(t, v)`` appends ``(t, v)``; consecutive identical values are
    coalesced and a re-sample at the same timestamp replaces the prior
    one (the last write at an instant wins, matching event semantics).
    """

    name: str
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def set(self, t: float, value: float) -> None:
        if self.samples:
            last_t, last_v = self.samples[-1]
            if t < last_t:
                raise ValueError(
                    f"gauge {self.name!r} sampled at {t} after {last_t}"
                )
            if t == last_t:
                self.samples[-1] = (t, value)
                return
            if value == last_v:
                return
        self.samples.append((t, value))

    @property
    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    @property
    def peak(self) -> Optional[float]:
        return max(v for _, v in self.samples) if self.samples else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "last": self.last,
            "peak": self.peak,
            "samples": [[t, v] for t, v in self.samples],
        }


@dataclass
class Histogram:
    """Fixed-bucket histogram with an overflow bucket.

    ``bounds`` are inclusive upper edges; an observation larger than the
    last bound lands in the overflow bucket.  Fixed edges keep the
    serialised form independent of observation order.
    """

    name: str
    bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram {self.name!r} bounds must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, edge in enumerate(self.bounds):
            if value <= edge:
                idx = i
                break
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Re-registering a name returns the existing instrument; asking for
    the same name as a different instrument type is a bug and raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind, factory):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, bounds=tuple(bounds))
        )

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str):
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic (name-sorted) serialisation of every instrument."""
        return {
            name: self._instruments[name].to_dict() for name in self.names()
        }
