"""The host-speed pilot every timing is normalised by.

This sandbox's CPU speed moves between plateaus 20–30 % apart that last
seconds to a minute, with bursts of 20–50 % slow-down for 0.1–0.5 s on
top (README.md, "Noise").  A plain wall clock therefore spreads 5–20 %
between runs of one commit.  A calibration loop timed before and after a
region cannot fix that: 0.1 s of calibration says little about the 4 s in
between (its readings spread *more* than the regions they bracket).

So the calibration runs *inside* the region, as a pilot tone: an interval
timer interrupts the program every :data:`INTERVAL_S` and the handler
times one fixed pure-Python slice (the idea of
``repro.experiments.calibration``, cut to 1.5 ms).  A 4 s region carries
~130 slices whose mean tracks what the host did to that region (log-log
correlation 0.9, slope 0.8–1.0 on every workload), and the region is
reported as

    (wall − time spent in the handler) × REFERENCE_S ÷ mean slice time

— the seconds it would have taken on a host where the slice takes
exactly ``REFERENCE_S``.  The handler runs between two bytecodes of the
main thread, so the program's results cannot change; it costs ~5 % of
the wall, which is subtracted.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, NamedTuple, Optional

__all__ = ["INTERVAL_S", "REFERENCE_S", "Pilot", "Reading"]

#: What one slice takes on the reference sandbox in its most common
#: plateau; a constant, so normalised seconds compare across commits.
REFERENCE_S = 0.00145

INTERVAL_S = 0.03

_KEYS = list(range(0, 36_000, 3))


def _slice() -> None:
    table = {}
    acc = 0
    for i, key in enumerate(_KEYS):
        table[key] = i
        acc += (key * key) % 7
    for key in _KEYS:
        acc += table[key]


class Reading(NamedTuple):
    """Cumulative pilot state; subtract two to get a region's share."""

    slices: int
    slice_s: float
    handler_s: float

    def since(self, earlier: "Reading") -> "Reading":
        return Reading(*(a - b for a, b in zip(self, earlier)))

    @property
    def speed_factor(self) -> float:
        """Multiplier turning measured seconds into reference-host seconds."""
        if not self.slices:  # a region shorter than one interval
            return 1.0
        return REFERENCE_S / (self.slice_s / self.slices)

    def normalise(self, wall: float) -> float:
        """``wall`` seconds of the region this reading covers, in
        reference-host seconds, net of the pilot's own cost."""
        return (wall - self.handler_s) * self.speed_factor


class Pilot:
    """Times a fixed slice every :data:`INTERVAL_S` while running."""

    def __init__(self) -> None:
        self._slices = 0
        self._slice_s = 0.0
        self._handler_s = 0.0
        #: called with each handler's duration (the span tracer books it
        #: as a layer of its own)
        self.on_tick: Optional[Callable[[float], None]] = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice()
        self._slices += 1
        self._slice_s += time.perf_counter() - start
        spent = time.perf_counter() - start
        self._handler_s += spent
        if self.on_tick is not None:
            self.on_tick(spent)

    def read(self) -> Reading:
        return Reading(self._slices, self._slice_s, self._handler_s)

    def __enter__(self) -> "Pilot":
        for _ in range(5):  # let the interpreter specialise the slice's bytecode
            _slice()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
