"""Experiment machinery: the paper's evaluation as a library.

The benchmark suite and the command-line interface both drive the
evaluation through this package:

* :mod:`~repro.experiments.runner` — execute one configuration (both QES,
  simulated + predicted) and produce a :class:`PointResult`.
* :mod:`~repro.experiments.figures` — one function per table/figure of the
  paper's evaluation, each returning the full measured series.
"""

from repro.experiments.figures import (
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
)
from repro.experiments.runner import PointResult, run_point

__all__ = [
    "PointResult",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_point",
]
