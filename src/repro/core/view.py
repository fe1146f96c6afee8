"""View definitions.

A Derived Data Source exposes views like ``V1 = T1 ⊕_xy T2 WHERE
x ∈ [0, 256], y ∈ [0, 512]`` (Section 4) — :class:`JoinView` — and, per the
Section 2 requirements, views involving "aggregation operations such as AVG
or SUM" over them — :class:`AggregationView` with optional grouping, which
also covers queries like "Find all reservoirs with average wp > 0.5".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.datamodel.bounding_box import BoundingBox

__all__ = ["JoinView", "Aggregate", "AggregationView"]

_AGG_FUNCS = ("sum", "avg", "min", "max", "count")


@dataclass(frozen=True)
class JoinView:
    """An equi-join view over two base tables with an optional range."""

    name: str
    left: str
    right: str
    on: Tuple[str, ...]
    where: Optional[BoundingBox] = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"view name {self.name!r} must be an identifier")
        if not self.on:
            raise ValueError("join view needs at least one join attribute")

    def describe(self) -> str:
        attrs = "".join(self.on)
        s = f"{self.name} = {self.left} ⊕_{attrs} {self.right}"
        if self.where is not None and len(self.where):
            ranges = ", ".join(
                f"{n} ∈ [{self.where.interval(n).lo:g}, {self.where.interval(n).hi:g}]"
                for n in self.where
            )
            s += f" WHERE {ranges}"
        return s


@dataclass(frozen=True)
class Aggregate:
    """One aggregate column: ``func(attr) AS alias``."""

    func: str
    attr: str
    alias: str = ""

    def __post_init__(self) -> None:
        if self.func.lower() not in _AGG_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r} (know {_AGG_FUNCS})")
        object.__setattr__(self, "func", self.func.lower())
        if self.attr == "*" and self.func != "count":
            raise ValueError(f"only COUNT may aggregate '*', not {self.func}")
        if not self.alias:
            default = "count_all" if self.attr == "*" else f"{self.func}_{self.attr}"
            object.__setattr__(self, "alias", default)


@dataclass(frozen=True)
class AggregationView:
    """Aggregates (optionally grouped) over a join view."""

    name: str
    source: JoinView
    aggregates: Tuple[Aggregate, ...]
    group_by: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"view name {self.name!r} must be an identifier")
        if not self.aggregates:
            raise ValueError("aggregation view needs at least one aggregate")
