"""A packed, load-once R-tree over n-dimensional boxes.

This is the index structure the MetaData Service uses to answer range
queries against chunk bounding boxes.  Every caller knows all its boxes
before it asks the first question, so the tree is bulk-loaded rather than
grown (Guttman's insert/split [6] spends its time on area arithmetic the
bulk case never needs):

* ``insert`` validates the box and appends it; nothing is organised yet;
* the first ``search`` after any insert *packs* everything: the boxes are
  put in sort-tile-recursive order (Leutenegger et al.: sort on the first
  dimension, cut into slabs, sort each slab on the next, ...), and every
  run of ``max_entries`` consecutive boxes becomes a node whose box is
  their union.  Each level is one ``(n, ndim)`` ``lo``/``hi`` array pair
  and the children of node ``i`` are the slice ``[i*M, (i+1)*M)`` of the
  level below, so there are no node objects and no pointers;
* ``search`` walks the levels top down with one vectorised closed-interval
  test per level, and answers in insertion order.

**Load-once contract:** an insert between two searches costs a full
re-pack at the second one.  That is correct but O(n log n); fill the tree,
then query it.

Boxes are ``(lo, hi)`` pairs of equal-length float sequences (closed
intervals, touching boxes intersect).  Bounds may be ``±inf``: the tree
only compares and takes min/max, so infinities answer exactly as
:meth:`Interval.overlaps <repro.datamodel.bounding_box.Interval.overlaps>`
does (tiles are ordered by ``lo``, not by centre — the centre of an
unbounded interval is NaN).  Payloads are opaque.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RTree"]

Boxish = Tuple[Sequence[float], Sequence[float]]
_Level = Tuple[np.ndarray, np.ndarray]


def _str_order(keys: np.ndarray, leaf_size: int) -> np.ndarray:
    """Sort-tile-recursive order of the ``(n, ndim)`` sort keys.

    Positions are cut into slabs dimension by dimension; every slab size
    is a multiple of ``leaf_size``, so slab borders are leaf borders.
    """
    n, ndim = keys.shape
    order = np.arange(n)
    position = np.arange(n)
    slab = np.zeros(n, dtype=np.intp)  # first position of each position's slab
    slab_size = n
    for d in range(ndim):
        if slab_size <= leaf_size:  # every slab is one leaf already
            break
        order = order[np.lexsort((keys[order, d], slab))]
        if d == ndim - 1:
            break
        leaves = -(-slab_size // leaf_size)
        slices = math.ceil(leaves ** (1.0 / (ndim - d)) - 1e-9)
        slab_size = leaf_size * -(-leaves // slices)
        slab += (position - slab) // slab_size * slab_size
    return order


class RTree:
    """Bulk-loaded (sort-tile-recursive) R-tree, packed lazily on search.

    Parameters
    ----------
    ndim:
        Dimensionality of all indexed boxes.
    max_entries:
        The node capacity ``M``: packed nodes are full except the last
        of each level.
    """

    def __init__(self, ndim: int, max_entries: int = 8):
        if ndim <= 0:
            raise ValueError("ndim must be positive")
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.ndim = ndim
        self.max_entries = max_entries
        self._boxes: List[np.ndarray] = []  # one validated (2, ndim) array per insert
        self._payloads: List[object] = []
        # set by _packed, dropped by insert
        self._levels: Optional[List[_Level]] = None
        self._order = np.arange(0)

    # -- public API ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def height(self) -> int:
        """Node levels from root to leaves (1 for up to ``max_entries`` boxes)."""
        return len(self._packed())

    def insert(self, box: Boxish, payload: object) -> None:
        """Add ``payload`` under bounding ``box = (lo, hi)``."""
        self._boxes.append(self._check_box(box))
        self._payloads.append(payload)
        self._levels = None

    def search(self, box: Boxish) -> List[object]:
        """All payloads whose boxes intersect the (closed) query box, in
        insertion order."""
        qlo, qhi = self._check_box(box)
        levels = self._packed()
        lo, hi = levels[-1]
        hits = np.flatnonzero(((lo <= qhi) & (hi >= qlo)).all(axis=1))
        fan = np.arange(self.max_entries)
        for lo, hi in reversed(levels[:-1]):
            kids = (hits[:, None] * self.max_entries + fan).ravel()
            kids = kids[kids < len(lo)]  # the last node of a level may be short
            hits = kids[((lo[kids] <= qhi) & (hi[kids] >= qlo)).all(axis=1)]
        payloads = self._payloads
        return [payloads[i] for i in np.sort(self._order[hits]).tolist()]

    def __iter__(self) -> Iterator[object]:
        """Iterate all payloads (no particular order)."""
        return iter(self._payloads)

    # -- internals ----------------------------------------------------------------

    def _check_box(self, box: Boxish) -> np.ndarray:
        """``box`` as a ``(2, ndim)`` array ``[lo, hi]``, or ``ValueError``."""
        b = np.asarray(box, dtype=float)  # ragged lo/hi raise ValueError here
        if b.shape != (2, self.ndim):
            raise ValueError(f"box must be two length-{self.ndim} vectors")
        if not (b[0] <= b[1]).all():  # a NaN bound compares False as well
            if np.isnan(b).any():
                raise ValueError("box bounds may not be NaN")
            raise ValueError(f"empty box: lo={b[0]} > hi={b[1]}")
        return b

    def _packed(self) -> List[_Level]:
        """The levels, entry boxes first and the root's entries last."""
        if self._levels is None:
            boxes = np.array(self._boxes, dtype=float).reshape(-1, 2, self.ndim)
            self._order = _str_order(boxes[:, 0], self.max_entries)
            lo, hi = boxes[self._order, 0], boxes[self._order, 1]
            levels = [(lo, hi)]
            while len(lo) > self.max_entries:
                starts = np.arange(0, len(lo), self.max_entries)
                lo = np.minimum.reduceat(lo, starts, axis=0)
                hi = np.maximum.reduceat(hi, starts, axis=0)
                levels.append((lo, hi))
            self._levels = levels
        return self._levels

    # -- diagnostics -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate structural invariants of the packed tree.

        * the bottom level holds every inserted box exactly once;
        * each level above has ``ceil(n_below / max_entries)`` nodes (so
          there are ``ceil(n / max_entries)`` leaves) and only the top
          level has ``max_entries`` boxes or fewer;
        * every node's box contains the boxes of its children.
        """
        m = self.max_entries
        levels = self._packed()
        assert sorted(self._order.tolist()) == list(range(len(self))), "not a permutation"
        boxes = np.array(self._boxes, dtype=float).reshape(-1, 2, self.ndim)[self._order]
        assert np.array_equal(levels[0][0], boxes[:, 0]), "bottom level lost a lower bound"
        assert np.array_equal(levels[0][1], boxes[:, 1]), "bottom level lost an upper bound"
        assert len(levels[-1][0]) <= m, "top level wider than one node"
        for (clo, chi), (plo, phi) in zip(levels, levels[1:]):
            assert len(clo) > m, "a level above a level that already fits one node"
            assert len(plo) == -(-len(clo) // m), "wrong node count"
            parent = np.arange(len(clo)) // m
            assert np.all(plo[parent] <= clo) and np.all(phi[parent] >= chi), (
                "node box does not contain a child box"
            )
