"""Calibration of the cost models, from two directions.

**Host microbenchmarks** (:func:`calibrate_host_machine`): the cost
models' system half is mostly nameplate (disk and link bandwidths), but
``α_build`` and ``α_lookup`` are software constants the paper measured
on its own testbed.  :func:`calibrate_host_machine` measures them on
*this* machine the same way — time a hash-table build over N keyed
records storing record pointers, then N probes — so a user deploying the
planner against real hardware can feed it real constants.

Measurements use a Python dict over packed 64-bit keys, matching the
in-memory hash join's reference (dict-kernel) implementation; vectorised
kernels are faster per tuple, so these constants are conservative, which
is the right bias for a planner (it under-promises the CPU-bound
algorithm).

**Drift-store fitting** (:func:`fit_term_calibration`): the other
direction of the loop.  ``repro run --analyze`` accumulates per-term
``(predicted, observed)`` records in the drift store; fitting pools them
per :class:`~repro.core.cost_models.TermCalibration` field and takes the
ratio of total observed to total predicted seconds — the least-squares
multiplier under the model's own linear structure.  The result plugs
back into planning as the ``calibration`` field of
:class:`~repro.core.cost_models.CostParameters`, which
``CostParameters.from_machine(..., calibration=)`` sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable

import numpy as np

from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.core.cost_models import TermCalibration
from repro.observe.drift import CALIBRATION_FIELD_OF_TERM, DriftRecord

__all__ = [
    "CalibrationResult",
    "calibrate_host_machine",
    "fit_term_calibration",
]


@dataclass(frozen=True)
class CalibrationResult:
    """Measured per-tuple costs (seconds) and the sampled sizes."""

    alpha_build: float
    alpha_lookup: float
    tuples: int
    repeats: int

    def machine(self, base: MachineSpec = PAPER_MACHINE) -> MachineSpec:
        """``base`` with this host's measured CPU constants (F reset to 1:
        the constants already describe this machine)."""
        return replace(
            base,
            alpha_build=self.alpha_build,
            alpha_lookup=self.alpha_lookup,
            cpu_factor=1.0,
        )


def _build_probe_once(keys: np.ndarray, probes: np.ndarray) -> tuple[float, float]:
    table: dict = {}
    t0 = time.perf_counter()
    for i, k in enumerate(keys.tolist()):
        table[k] = i
    t1 = time.perf_counter()
    hits = 0
    for k in probes.tolist():
        if k in table:
            hits += 1
    t2 = time.perf_counter()
    assert hits == len(probes)
    return t1 - t0, t2 - t1


def calibrate_host_machine(
    tuples: int = 100_000, repeats: int = 3, seed: int = 0
) -> CalibrationResult:
    """Measure ``α_build`` and ``α_lookup`` on the current host.

    Takes the *minimum* over ``repeats`` runs (standard practice for
    microbenchmarks: the minimum is the least noise-contaminated sample).
    """
    if tuples <= 0 or repeats <= 0:
        raise ValueError("tuples and repeats must be positive")
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.arange(tuples, dtype=np.int64))
    probes = rng.permutation(keys)
    build_times = []
    lookup_times = []
    for _ in range(repeats):
        b, l = _build_probe_once(keys, probes)
        build_times.append(b)
        lookup_times.append(l)
    return CalibrationResult(
        alpha_build=min(build_times) / tuples,
        alpha_lookup=min(lookup_times) / tuples,
        tuples=tuples,
        repeats=repeats,
    )


def fit_term_calibration(
    records: Iterable[DriftRecord],
) -> TermCalibration:
    """Fit per-term model corrections from accumulated drift records.

    Pools predicted and observed seconds per calibration field — across
    algorithms and configurations, since e.g. ``transfer`` is one shared
    term — and takes total-observed / total-predicted as the correction
    factor.  Terms with no usable records (never predicted, or never
    observed on any critical path) keep their identity factor: there is
    no evidence to move them.
    """
    predicted: Dict[str, float] = {}
    observed: Dict[str, float] = {}
    for rec in records:
        field = CALIBRATION_FIELD_OF_TERM.get(rec.term)
        if field is None or rec.predicted_s <= 0:
            continue
        predicted[field] = predicted.get(field, 0.0) + rec.predicted_s
        observed[field] = observed.get(field, 0.0) + rec.observed_s
    factors = {
        field: observed[field] / predicted[field]
        for field in sorted(predicted)
        if observed[field] > 0
    }
    return TermCalibration(**factors)
