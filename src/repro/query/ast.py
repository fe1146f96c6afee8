"""Query AST for the SQL subset.

The grammar (see :mod:`repro.query.parser`) covers the paper's query forms:

* ``SELECT * FROM T1 WHERE x IN [0, 256] AND y IN [0, 512]``
* ``SELECT * FROM V1``
* ``SELECT AVG(wp) AS mean_wp FROM V1 GROUP BY reservoir``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.core.view import Aggregate
from repro.query.predicate import Predicate, TruePredicate

__all__ = ["SelectItem", "SelectQuery"]


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: a plain column or an aggregate."""

    column: Optional[str] = None
    aggregate: Optional[Aggregate] = None

    def __post_init__(self) -> None:
        if (self.column is None) == (self.aggregate is None):
            raise ValueError("a select item is either a column or an aggregate")

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None


@dataclass(frozen=True)
class SelectQuery:
    """``SELECT items FROM source [WHERE pred] [GROUP BY cols]``."""

    source: str
    items: Tuple[SelectItem, ...] = ()  # empty means '*'
    where: Predicate = field(default_factory=TruePredicate)
    group_by: Tuple[str, ...] = ()

    @property
    def is_star(self) -> bool:
        return not self.items

    @property
    def has_aggregates(self) -> bool:
        return any(i.is_aggregate for i in self.items)

    def attrs(self) -> Set[str]:
        """Every attribute the query names: select list, aggregate
        arguments, GROUP BY and predicate."""
        named = {i.aggregate.attr if i.is_aggregate else i.column for i in self.items}
        return (named | set(self.group_by) | self.where.attrs()) - {"*"}

    def __post_init__(self) -> None:
        if self.group_by and not self.has_aggregates:
            raise ValueError("GROUP BY requires at least one aggregate")
        if self.has_aggregates:
            group = set(self.group_by)
            for item in self.items:
                if not item.is_aggregate and item.column not in group:
                    raise ValueError(
                        f"non-aggregated column {item.column!r} must appear in GROUP BY"
                    )
