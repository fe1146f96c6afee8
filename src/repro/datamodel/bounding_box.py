"""Per-attribute bounding boxes.

Every chunk (and the sub-table extracted from it) carries lower and upper
bounds on the attributes stored in it — e.g. the lower-left chunk of table
``T1`` in the paper's Figure 1 has bounding box
``[(0, 0, 0.2, 0.3), (64, 64, 0.8, 0.5)]`` over ``(x, y, oilp, soil)``.

A :class:`BoundingBox` maps attribute names to closed :class:`Interval`\\ s.
An attribute *absent* from the box is treated as unbounded
(``[-inf, +inf]``), exactly as Section 4.1 of the paper prescribes: "If an
attribute is not present in a sub-table, it is assumed to have a bound of
[-inf, +inf]".  This makes boxes over different attribute sets comparable,
which is what lets the page-level join index pair sub-tables of two tables
that share only their coordinate attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Interval", "BoundingBox"]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` on one attribute.

    Degenerate intervals (``lo == hi``) are legal and common: a chunk holding
    a single z-slice of a grid has a degenerate ``z`` interval.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bounds may not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def unbounded(cls) -> "Interval":
        return cls(_NEG_INF, _POS_INF)

    @property
    def is_unbounded(self) -> bool:
        return self.lo == _NEG_INF and self.hi == _POS_INF

    def overlaps(self, other: "Interval") -> bool:
        """Closed-interval overlap test (shared endpoints count)."""
        return self.lo <= other.hi and other.lo <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Intersection, or ``None`` when the intervals are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)


class BoundingBox:
    """A mapping from attribute names to :class:`Interval` bounds.

    The box behaves as if it had an explicit ``[-inf, +inf]`` interval for
    every attribute it does not mention; :meth:`interval` realises that
    default.  Consequently two boxes always overlap on an attribute that
    neither mentions, and a box with no entries overlaps everything.

    Instances are immutable; :meth:`union` and :meth:`intersect` return
    new boxes.  Immutability lets sub-tables, chunk descriptors and R-tree
    nodes share boxes freely.
    """

    __slots__ = ("_intervals", "_hash")

    def __init__(self, intervals: Mapping[str, Interval] | Mapping[str, Tuple[float, float]] | None = None):
        items: Dict[str, Interval] = {}
        if intervals:
            for name, iv in intervals.items():
                if not isinstance(iv, Interval):
                    iv = Interval(float(iv[0]), float(iv[1]))
                if not iv.is_unbounded:  # storing unbounded entries is redundant
                    items[name] = iv
        self._intervals: Dict[str, Interval] = items
        self._hash: Optional[int] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls) -> "BoundingBox":
        """The all-unbounded box (overlaps every other box)."""
        return cls()

    # -- basic protocol --------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes with explicit (non-trivial) bounds, sorted."""
        return tuple(sorted(self._intervals))

    def interval(self, name: str) -> Interval:
        """The bound for ``name``; unbounded when not explicitly stored."""
        return self._intervals.get(name) or Interval.unbounded()

    def bounds(self, names: Iterable[str]) -> Tuple[List[float], List[float]]:
        """The box projected onto ``names`` as parallel ``(lows, highs)``
        lists, the form the R-tree takes.  Attributes the box does not mention come out ``-inf``/``inf``."""
        intervals = [self.interval(n) for n in names]
        return [iv.lo for iv in intervals], [iv.hi for iv in intervals]

    def __contains__(self, name: str) -> bool:
        return name in self._intervals

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._intervals))

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundingBox):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._intervals.items()))
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}=[{iv.lo:g},{iv.hi:g}]" for n, iv in sorted(self._intervals.items()))
        return f"BoundingBox({parts})"

    # -- geometry ---------------------------------------------------------------

    def overlaps(self, other: "BoundingBox", on: Optional[Iterable[str]] = None) -> bool:
        """True when the boxes overlap on every attribute in ``on``.

        With ``on=None`` the test runs over the union of explicitly bounded
        attributes of both boxes — the candidate-pair test of the page-level
        join index.  Restricting ``on`` to the join attributes implements
        "sub-tables whose bounds overlap [on the join attribute] are candidate
        pairs".
        """
        names = set(on) if on is not None else set(self._intervals) | set(other._intervals)
        for name in names:
            if not self.interval(name).overlaps(other.interval(name)):
                return False
        return True

    def contains_box(self, other: "BoundingBox") -> bool:
        """True when ``other`` lies entirely inside this box."""
        for name, iv in self._intervals.items():
            if not iv.contains_interval(other.interval(name)):
                return False
        return True

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both operands.

        Per Section 4.1 this is the bound attached to a *pair* of sub-tables
        in the join index: an attribute bounded in only one operand becomes
        unbounded in the union (the other operand extends to infinity there).
        """
        out: Dict[str, Interval] = {}
        # sorted: the result's attribute order must not depend on string-set
        # iteration order (which varies with PYTHONHASHSEED)
        for name in sorted(set(self._intervals) & set(other._intervals)):
            out[name] = self._intervals[name].union(other._intervals[name])
        return BoundingBox(out)

    def intersect(self, other: "BoundingBox") -> Optional["BoundingBox"]:
        """Intersection box, or ``None`` when the boxes are disjoint."""
        out: Dict[str, Interval] = {}
        for name in sorted(set(self._intervals) | set(other._intervals)):
            iv = self.interval(name).intersect(other.interval(name))
            if iv is None:
                return None
            out[name] = iv
        return BoundingBox(out)
