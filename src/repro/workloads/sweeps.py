"""Parameter sweeps for the evaluation benchmarks.

A useful identity (derived from the Section 6 formulas, and property-tested
against them): with aligned partitions,

    n_e        = T / Π_d min(p_d, q_d)
    edge ratio = n_e·c_R·c_S / T² = Π_d max(p_d, q_d) / T = 1 / N_C
    n_e·c_S    = T · Π_d max(1, q_d / p_d)

So the Figure 4 protocol — "varied n_e·c_S by keeping a constant grid size
and varying the partition sizes ... maintained a constant edge ratio in all
of the runs" — amounts to holding the component size C fixed while varying
how finely the *left* table is cut inside each component:
:func:`constant_edge_ratio_sweep` fixes ``q = C`` and halves ``p``
dimension by dimension, doubling ``n_e·c_S`` at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.workloads.generator import GridSpec

__all__ = ["SweepPoint", "constant_edge_ratio_sweep", "tuple_count_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: a spec plus the axis value it represents."""

    spec: GridSpec
    axis_value: float
    label: str


def constant_edge_ratio_sweep(
    g: Tuple[int, ...],
    component: Tuple[int, ...],
    steps: int,
) -> List[SweepPoint]:
    """The Figure 4 sweep: constant grid, constant edge ratio, doubling
    ``n_e·c_S``.

    ``component`` fixes ``C`` (hence the edge ratio ``ΠC/T``); the right
    table is partitioned exactly at ``C`` and the left partition starts at
    ``C`` and halves one dimension per step (round-robin over dimensions).
    ``steps`` points are returned; step ``k`` has ``n_e·c_S = T·2^k``.
    """
    if len(g) != len(component):
        raise ValueError("g and component must have equal length")
    for gd, cd in zip(g, component):
        if gd % cd:
            raise ValueError(f"component size {cd} must divide grid {gd}")
    p = list(component)
    out: List[SweepPoint] = []
    dim = 0
    for k in range(steps):
        spec = GridSpec(g=tuple(g), p=tuple(p), q=tuple(component))
        out.append(
            SweepPoint(
                spec=spec,
                axis_value=float(spec.ne_cs),
                label=f"ne_cs={spec.ne_cs} (degree {2**k})",
            )
        )
        # halve one dimension of p for the next step
        tried = 0
        while tried < len(p) and p[dim] == 1:
            dim = (dim + 1) % len(p)
            tried += 1
        if tried == len(p):
            break  # cannot refine further
        p[dim] //= 2
        dim = (dim + 1) % len(p)
    return out


def tuple_count_sweep(
    base: GridSpec, factors: Sequence[int], scale_dim: int = 0
) -> List[SweepPoint]:
    """The Figure 6 sweep: grow the grid (hence ``T``) by integer factors
    along one dimension, keeping partition sizes fixed so per-sub-table
    cardinalities (``c_R``, ``c_S``) and degrees are unchanged."""
    out: List[SweepPoint] = []
    for f in factors:
        if f <= 0:
            raise ValueError("factors must be positive")
        g = list(base.g)
        g[scale_dim] *= f
        spec = GridSpec(g=tuple(g), p=base.p, q=base.q)
        out.append(SweepPoint(spec=spec, axis_value=float(spec.T), label=f"T={spec.T:,}"))
    return out
