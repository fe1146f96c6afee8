"""One function per evaluation figure.

Each function runs its figure's sweep — by default the paper's protocol,
at the scale recorded in EXPERIMENTS.md, which is what the benchmark
suite (``benchmarks/test_fig*.py``) calls; the CLI's ``repro sweep``
passes its own deployment — and returns the measured series as
``[(axis value, PointResult)]``.

Beyond its own sweep parameters every figure accepts the run options of
:func:`_run_options` and forwards them to each point: ``machine``;
``pipeline=True`` to run (and predict) the Indexed Join in its overlapped
prefetching mode — an ablation the paper's synchronous QES does not have,
useful for seeing how much of each figure's IJ curve is exposed transfer
time; ``sanitize=True`` to run every point under the runtime sanitizer
(invariant hooks plus a shadow execution per QES — see
:func:`repro.experiments.runner.run_point`); ``telemetry=True`` to record
spans on every point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.experiments.runner import PointResult, run_point
from repro.workloads.generator import GridSpec
from repro.workloads.sweeps import constant_edge_ratio_sweep, tuple_count_sweep

__all__ = [
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
]

Series = List[Tuple[Any, PointResult]]


def _run_options(
    machine: MachineSpec = PAPER_MACHINE,
    pipeline: bool = False,
    sanitize: bool = False,
    telemetry: bool = False,
) -> Dict[str, Any]:
    """The options every figure forwards to each :func:`run_point`,
    checked against this one signature."""
    return dict(machine=machine, pipeline=pipeline, sanitize=sanitize,
                telemetry=telemetry)


def run_figure4(
    grid: Tuple[int, ...] = (128, 128, 128),
    component: Tuple[int, ...] = (32, 32, 32),
    steps: int = 7,
    n_s: int = 5,
    n_j: int = 5,
    **run: Any,
) -> Series:
    """Execution time vs ``n_e·c_S`` at constant grid and edge ratio."""
    run = _run_options(**run)
    points = constant_edge_ratio_sweep(grid, component, steps=steps)
    return [(pt.spec.ne_cs, run_point(pt.spec, n_s, n_j, **run)) for pt in points]


def run_figure5(
    spec: GridSpec = GridSpec((128, 128, 128), (32, 32, 32), (32, 32, 32)),
    n_s: int = 5,
    n_j_sweep: Sequence[int] = (1, 2, 3, 4, 5),
    **run: Any,
) -> Series:
    """Execution time vs number of compute nodes (low ``n_e·c_S``)."""
    run = _run_options(**run)
    return [(n_j, run_point(spec, n_s, n_j, **run)) for n_j in n_j_sweep]


def run_figure6(
    base: GridSpec = GridSpec((128, 128, 128), (32, 32, 32), (32, 32, 32)),
    factors: Sequence[int] = (1, 4, 16, 64, 1024),
    n_s: int = 5,
    n_j: int = 5,
    **run: Any,
) -> Series:
    """Execution time vs T, partitions held fixed (to ~2 B tuples)."""
    run = _run_options(**run)
    points = tuple_count_sweep(base, factors, scale_dim=0)
    return [(pt.spec.T, run_point(pt.spec, n_s, n_j, **run)) for pt in points]


def run_figure7(
    spec: GridSpec = GridSpec((128, 128, 128), (32, 32, 32), (32, 32, 32)),
    extra_attributes: Sequence[int] = (0, 4, 8, 12, 17),
    n_s: int = 5,
    n_j: int = 5,
    **run: Any,
) -> Series:
    """Execution time vs attribute count (4-byte attributes)."""
    run = _run_options(**run)
    return [
        (4 + extra, run_point(spec, n_s, n_j, extra_attributes=extra, **run))
        for extra in extra_attributes
    ]


def run_figure8(
    spec: GridSpec = GridSpec((128, 128, 128), (16, 16, 16), (32, 32, 32)),
    f_sweep: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    n_s: int = 5,
    n_j: int = 5,
    **run: Any,
) -> Series:
    """Execution time vs computing-power factor F."""
    run = _run_options(**run)
    machine = run.pop("machine")
    return [
        (f, run_point(spec, n_s, n_j, machine=machine.with_cpu_factor(f), **run))
        for f in f_sweep
    ]


def run_figure9(
    spec: GridSpec = GridSpec((64, 64, 64), (16, 16, 16), (16, 16, 16)),
    n_j_sweep: Sequence[int] = (1, 2, 4, 8),
    machine: MachineSpec = MachineSpec(disk_latency=5e-3),
    **run: Any,
) -> Series:
    """Shared-NFS deployment: execution time vs compute nodes.

    The default machine charges the single server a 5 ms seek per
    request — what makes Grace Hash's batch count hurt as nodes are added.
    """
    run = _run_options(machine=machine, **run)
    return [
        (n_j, run_point(spec, 1, n_j, shared_nfs=True, **run)) for n_j in n_j_sweep
    ]
