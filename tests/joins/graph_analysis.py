"""Connectivity-graph analytics: the networkx oracle for the join index.

The cost models consume only ``n_e`` and the average right-degree; the
richer structure here (degree distributions, component-shape histograms,
regularity checks, a `networkx <https://networkx.org>`_ bipartite export)
is what the test suite holds the index's int-label component pass
against.  It lives beside the tests because nothing under ``src/`` calls
it and the package declares numpy only: ``import repro`` must not need
networkx.  It shares :class:`~repro.joins.join_index.PageJoinIndex`'s
``pairs`` and nothing of its algorithm.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Tuple

import networkx as nx

from repro.joins.join_index import PageJoinIndex

__all__ = ["GraphAnalysis", "analyze_index", "to_networkx"]


def to_networkx(index: PageJoinIndex) -> "nx.Graph":
    """The sub-table connectivity graph as a networkx bipartite graph.

    Left sub-tables get ``side="left"``, right ones ``side="right"``; node
    keys are ``("L", SubTableId)`` / ``("R", SubTableId)`` so ids never
    collide across tables.
    """
    g = nx.Graph()
    for l, r in index.pairs:
        g.add_node(("L", l), side="left", table=l.table_id, chunk=l.chunk_id)
        g.add_node(("R", r), side="right", table=r.table_id, chunk=r.chunk_id)
        g.add_edge(("L", l), ("R", r))
    return g


@dataclass(frozen=True)
class GraphAnalysis:
    """Summary statistics of one connectivity graph."""

    num_edges: int
    num_components: int
    num_left: int
    num_right: int
    left_degree_min: int
    left_degree_max: int
    left_degree_mean: float
    right_degree_min: int
    right_degree_max: int
    right_degree_mean: float
    #: histogram of component shapes: (a, b, edges) -> count
    component_shapes: Tuple[Tuple[Tuple[int, int, int], int], ...]

    @property
    def is_regular(self) -> bool:
        """True when every component has the same (a, b, edges) shape —
        the regular-partitioning situation the paper's closed forms
        describe."""
        return len(self.component_shapes) <= 1

    @property
    def max_component_edges(self) -> int:
        return max((shape[2] for shape, _ in self.component_shapes), default=0)

    def describe(self) -> str:
        lines = [
            f"{self.num_edges} edges over {self.num_left} left x "
            f"{self.num_right} right sub-tables, {self.num_components} components",
            f"left degrees:  min {self.left_degree_min}, "
            f"mean {self.left_degree_mean:.2f}, max {self.left_degree_max}",
            f"right degrees: min {self.right_degree_min}, "
            f"mean {self.right_degree_mean:.2f}, max {self.right_degree_max}",
            f"component shapes (a, b, edges): "
            + ", ".join(f"{shape} x{count}" for shape, count in self.component_shapes),
            f"regular: {self.is_regular}",
        ]
        return "\n".join(lines)


def analyze_index(index: PageJoinIndex) -> GraphAnalysis:
    """Compute :class:`GraphAnalysis` for ``index``."""
    left_deg: Counter = Counter()
    right_deg: Counter = Counter()
    for l, r in index.pairs:
        left_deg[l] += 1
        right_deg[r] += 1
    comps = index.components()
    shape_hist = Counter((c.a, c.b, c.num_edges) for c in comps)

    def stats(counter: Counter) -> Tuple[int, int, float]:
        if not counter:
            return 0, 0, 0.0
        values = list(counter.values())
        return min(values), max(values), sum(values) / len(values)

    lmin, lmax, lmean = stats(left_deg)
    rmin, rmax, rmean = stats(right_deg)
    return GraphAnalysis(
        num_edges=index.num_edges,
        num_components=len(comps),
        num_left=len(left_deg),
        num_right=len(right_deg),
        left_degree_min=lmin,
        left_degree_max=lmax,
        left_degree_mean=lmean,
        right_degree_min=rmin,
        right_degree_max=rmax,
        right_degree_mean=rmean,
        component_shapes=tuple(sorted(shape_hist.items())),
    )
