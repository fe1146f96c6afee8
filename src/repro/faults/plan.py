"""Deterministic, seed-driven fault plans.

A :class:`FaultPlan` is a *pure description* of what goes wrong during a
run: node crashes at fixed simulated times, a transient-failure probability
applied to every transfer attempt, and degradation onsets that scale a
disk's or NIC's bandwidth mid-run.  The plan holds no state — the
:class:`repro.faults.FaultInjector` interprets it against a concrete
cluster — and every random choice (which node crashes when the plan says
"any storage node", whether attempt #k of a transfer fails) is a
counter-based splitmix64 draw from the plan's seed, so a given
``(plan, workload)`` pair always produces the identical faulty trace.

Plans parse from compact CLI specs::

    seed=7,storage_crash=0.5            # one storage node dies at t=0.5 s
    seed=3,transient=0.1                # each transfer attempt fails w.p. 0.1
    storage_crash=0.5@2,compute_crash=1.0,disk_degrade=0.8:0.25

(``storage_crash=t@node`` pins the victim; without ``@node`` the victim is
a seed-chosen node.  ``disk_degrade=t:factor`` scales the seed-chosen
disk's bandwidth by ``factor`` from time ``t`` on.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

# the mixer lives in repro.core.rng (shared with placement and scheduling);
# re-exported here because fault-plan consumers historically import it from
# repro.faults
from repro.core.rng import splitmix64

__all__ = ["NodeCrash", "Degradation", "FaultPlan", "splitmix64"]

#: every key :meth:`FaultPlan.parse` understands, in documentation order
_SPEC_KEYS = (
    "seed",
    "transient",
    "max_attempts",
    "retry_base",
    "storage_crash",
    "compute_crash",
    "disk_degrade",
    "nic_degrade",
)


@dataclass(frozen=True)
class NodeCrash:
    """A node fails permanently at simulated time ``at``.

    ``node=None`` means "a seed-chosen node of this kind" — the injector
    resolves it deterministically from the plan seed and the cluster size.
    """

    kind: str  # "storage" | "compute"
    at: float
    node: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("storage", "compute"):
            raise ValueError(f"unknown crash kind {self.kind!r}")
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(f"crash time must be finite and >= 0, got {self.at}")


@dataclass(frozen=True)
class Degradation:
    """A resource loses performance permanently at time ``at``: its
    bandwidth is multiplied by ``factor`` (0 < factor < 1)."""

    kind: str  # "disk" | "nic"
    at: float
    factor: float
    node: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("disk", "nic"):
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(f"degradation time must be finite and >= 0, got {self.at}")
        if not (0 < self.factor < 1):
            raise ValueError(f"degradation factor must be in (0, 1), got {self.factor}")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, reproducibly."""

    seed: int = 0
    crashes: Tuple[NodeCrash, ...] = ()
    #: probability that any single transfer attempt fails transiently
    transfer_failure_rate: float = 0.0
    degradations: Tuple[Degradation, ...] = ()
    #: retry policy for transient faults: attempts per replica before
    #: failing over, and the base of the exponential backoff (seconds)
    max_attempts: int = 8
    retry_base: float = 0.05

    def __post_init__(self):
        if not (0.0 <= self.transfer_failure_rate < 1.0):
            raise ValueError(
                f"transfer_failure_rate must be in [0, 1), got {self.transfer_failure_rate}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (math.isfinite(self.retry_base) and self.retry_base >= 0):
            raise ValueError(f"retry_base must be finite and >= 0, got {self.retry_base}")

    @property
    def is_trivial(self) -> bool:
        """True when the plan injects nothing at all.

        A trivial plan must leave the run byte-identical to ``faults=None``
        — the injector installs no guards and spawns no timers for it.
        """
        return (
            not self.crashes
            and self.transfer_failure_rate == 0.0
            and not self.degradations
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI fault spec (see module docstring).

        Keys: ``seed=<int>``, ``storage_crash=<t>[@node]``,
        ``compute_crash=<t>[@node]``, ``transient=<p>``,
        ``disk_degrade=<t>:<factor>[@node]``,
        ``nic_degrade=<t>:<factor>[@node]``, ``max_attempts=<int>``,
        ``retry_base=<float>``.  The four single-value keys (``seed``,
        ``transient``, ``max_attempts``, ``retry_base``) may each be given
        once and take no ``@node``; crash and degrade keys may repeat.
        """
        kw = dict(seed=0, transfer_failure_rate=0.0, max_attempts=8, retry_base=0.05)
        crashes, degradations = [], []
        seen = set()
        for item in filter(None, (s.strip() for s in spec.split(","))):
            if "=" not in item:
                raise ValueError(f"bad fault spec item {item!r} (expected key=value)")
            key, _, val = item.partition("=")
            key = key.strip()
            val = val.strip()
            single = key in ("seed", "transient", "max_attempts", "retry_base")
            if single:
                if key in seen:
                    raise ValueError(f"fault spec key {key!r} given twice")
                seen.add(key)
            node = None
            if "@" in val:
                if single:
                    raise ValueError(f"fault spec key {key!r} takes no @node in {item!r}")
                val, _, node_s = val.partition("@")
                try:
                    node = int(node_s)
                except ValueError:
                    raise ValueError(f"bad node {node_s.strip()!r} in {item!r}") from None
            if key == "seed":
                kw["seed"] = int(val)
            elif key == "transient":
                kw["transfer_failure_rate"] = float(val)
            elif key == "max_attempts":
                kw["max_attempts"] = int(val)
            elif key == "retry_base":
                kw["retry_base"] = float(val)
            elif key in ("storage_crash", "compute_crash"):
                crashes.append(
                    NodeCrash(kind=key.split("_")[0], at=float(val), node=node)
                )
            elif key in ("disk_degrade", "nic_degrade"):
                t_s, sep, f_s = val.partition(":")
                if not sep:
                    raise ValueError(
                        f"degradation spec {item!r} needs t:factor, e.g. {key}=0.8:0.25"
                    )
                degradations.append(
                    Degradation(
                        kind=key.split("_")[0], at=float(t_s), factor=float(f_s),
                        node=node,
                    )
                )
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r} in {item!r} "
                    f"(valid keys: {', '.join(_SPEC_KEYS)})"
                )
        return cls(
            crashes=tuple(crashes), degradations=tuple(degradations), **kw
        )

    # keep dataclass niceties but define stable draw helpers --------------------

    def draw(self, counter: int) -> float:
        """Uniform [0, 1) draw number ``counter`` from the plan's stream."""
        return splitmix64(self.seed, counter) / 2.0**64

    def choose(self, counter: int, n: int) -> int:
        """Deterministically choose an index in ``[0, n)``."""
        return splitmix64(self.seed, counter) % n
