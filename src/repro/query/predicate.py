"""Record-level predicates with chunk-level bounding-box relaxations.

Every predicate supports two evaluations:

* :meth:`Predicate.mask` — a vectorised boolean mask over a sub-table's
  records (the exact, record-level semantics);
* :meth:`Predicate.bbox` — the predicate's *relaxation* to a bounding box,
  used by the MetaData Service and join index for chunk pruning.  The
  relaxation is conservative: any record satisfying the predicate lies
  inside the box (disjunctions relax to the union box; attributes
  constrained differently across branches become unbounded).

:meth:`Predicate.attrs` names the attributes a predicate reads — what the
executor checks against the source's schema and projects the scan onto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Set, Tuple

import numpy as np

from repro.datamodel.bounding_box import BoundingBox, Interval
from repro.datamodel.subtable import SubTable

__all__ = ["Predicate", "TruePredicate", "Comparison", "RangePredicate", "And", "Or"]

_OPS = ("<", "<=", ">", ">=", "=", "!=")


class Predicate:
    """Base class; :class:`And` and :class:`Or` combine predicates."""

    def mask(self, sub: SubTable) -> np.ndarray:
        raise NotImplementedError

    def bbox(self) -> BoundingBox:
        raise NotImplementedError

    def attrs(self) -> Set[str]:
        """Every attribute the predicate reads."""
        raise NotImplementedError


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches everything (the absent WHERE clause)."""

    def mask(self, sub: SubTable) -> np.ndarray:
        return np.ones(sub.num_records, dtype=bool)

    def bbox(self) -> BoundingBox:
        return BoundingBox.empty()

    def attrs(self) -> Set[str]:
        return set()


@dataclass(frozen=True)
class Comparison(Predicate):
    """``attr op value`` for the usual six comparison operators."""

    attr: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r} (know {_OPS})")

    def mask(self, sub: SubTable) -> np.ndarray:
        col = sub.column(self.attr)
        v = self.value
        if self.op == "<":
            return col < v
        if self.op == "<=":
            return col <= v
        if self.op == ">":
            return col > v
        if self.op == ">=":
            return col >= v
        if self.op == "=":
            return col == v
        return col != v

    def bbox(self) -> BoundingBox:
        inf = float("inf")
        # a strict bound relaxes to the closed box just inside it: no
        # float64 lies strictly between v and nextafter(v), and no value
        # of a float32 or integer column either, so it stays conservative
        if self.op == "<":
            return BoundingBox({self.attr: (-inf, math.nextafter(self.value, -inf))})
        if self.op == "<=":
            return BoundingBox({self.attr: (-inf, self.value)})
        if self.op == ">":
            return BoundingBox({self.attr: (math.nextafter(self.value, inf), inf)})
        if self.op == ">=":
            return BoundingBox({self.attr: (self.value, inf)})
        if self.op == "=":
            return BoundingBox({self.attr: (self.value, self.value)})
        return BoundingBox.empty()  # != constrains nothing at box level

    def attrs(self) -> Set[str]:
        return {self.attr}


@dataclass(frozen=True)
class RangePredicate(Predicate):
    """``attr IN [lo, hi]`` — the paper's range syntax (closed interval)."""

    attr: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")

    def mask(self, sub: SubTable) -> np.ndarray:
        col = sub.column(self.attr)
        return (col >= self.lo) & (col <= self.hi)

    def bbox(self) -> BoundingBox:
        return BoundingBox({self.attr: (self.lo, self.hi)})

    def attrs(self) -> Set[str]:
        return {self.attr}


@dataclass(frozen=True)
class And(Predicate):
    children: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("And needs at least one child")

    def mask(self, sub: SubTable) -> np.ndarray:
        out = self.children[0].mask(sub)
        for child in self.children[1:]:
            out = out & child.mask(sub)
        return out

    def bbox(self) -> BoundingBox:
        out = self.children[0].bbox()
        for child in self.children[1:]:
            inter = out.intersect(child.bbox())
            if inter is None:
                # contradictory constraints: no record satisfies the
                # predicate, so any box is a valid (conservative)
                # relaxation; keep what we have
                return out
            out = inter
        return out

    def attrs(self) -> Set[str]:
        return set().union(*(c.attrs() for c in self.children))


@dataclass(frozen=True)
class Or(Predicate):
    children: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("Or needs at least one child")

    def mask(self, sub: SubTable) -> np.ndarray:
        out = self.children[0].mask(sub)
        for child in self.children[1:]:
            out = out | child.mask(sub)
        return out

    def bbox(self) -> BoundingBox:
        """Union relaxation: per attribute, the hull of the branch bounds —
        and an attribute unconstrained in any branch becomes unbounded."""
        boxes = [c.bbox() for c in self.children]
        names = set(boxes[0].attributes)
        for b in boxes[1:]:
            names &= set(b.attributes)
        out = {}
        for name in names:
            ivs = [b.interval(name) for b in boxes]
            out[name] = Interval(min(iv.lo for iv in ivs), max(iv.hi for iv in ivs))
        return BoundingBox(out)

    def attrs(self) -> Set[str]:
        return set().union(*(c.attrs() for c in self.children))
