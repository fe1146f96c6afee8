"""Unit and property tests for the R-tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metadata import RTree


def brute_force(boxes, query):
    qlo, qhi = np.asarray(query[0], float), np.asarray(query[1], float)
    hits = []
    for (lo, hi), payload in boxes:
        lo, hi = np.asarray(lo, float), np.asarray(hi, float)
        if np.all(lo <= qhi) and np.all(qlo <= hi):
            hits.append(payload)
    return hits


class TestRTreeBasics:
    def test_empty_search(self):
        t = RTree(ndim=2)
        assert t.search(((0, 0), (1, 1))) == []
        assert len(t) == 0

    def test_single_insert_and_hit(self):
        t = RTree(ndim=2)
        t.insert(((0, 0), (10, 10)), "a")
        assert t.search(((5, 5), (6, 6))) == ["a"]
        assert t.search(((11, 11), (12, 12))) == []
        assert len(t) == 1

    def test_touching_boxes_intersect(self):
        t = RTree(ndim=1)
        t.insert(((0,), (1,)), "a")
        assert t.search(((1,), (2,))) == ["a"]

    def test_point_boxes(self):
        t = RTree(ndim=2)
        t.insert(((3, 3), (3, 3)), "pt")
        assert t.search(((0, 0), (5, 5))) == ["pt"]
        assert t.search(((4, 4), (5, 5))) == []

    def test_split_grows_tree(self):
        t = RTree(ndim=2, max_entries=4)
        for i in range(50):
            t.insert(((i, i), (i + 0.5, i + 0.5)), i)
        assert len(t) == 50
        assert t.height > 1
        t.check_invariants()
        assert sorted(t) == list(range(50))

    def test_duplicate_boxes_allowed(self):
        t = RTree(ndim=1, max_entries=3)
        for i in range(10):
            t.insert(((0,), (1,)), i)
        assert sorted(t.search(((0,), (1,)))) == list(range(10))
        t.check_invariants()

    def test_bad_boxes_rejected(self):
        t = RTree(ndim=2)
        with pytest.raises(ValueError):
            t.insert(((0,), (1,)), "wrong dim")
        with pytest.raises(ValueError):
            t.insert(((2, 2), (1, 1)), "inverted")
        with pytest.raises(ValueError):
            t.insert(((float("nan"), 0), (1, 1)), "nan")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            RTree(ndim=0)
        with pytest.raises(ValueError):
            RTree(ndim=2, max_entries=1)

    def test_grid_range_query(self):
        # 10x10 unit cells; query a 3x4 window
        t = RTree(ndim=2, max_entries=5)
        for i in range(10):
            for j in range(10):
                t.insert(((i, j), (i + 1, j + 1)), (i, j))
        hits = t.search(((2.1, 3.1), (4.9, 6.9)))
        expected = {(i, j) for i in range(2, 5) for j in range(3, 7)}
        assert set(hits) == expected
        t.check_invariants()


@st.composite
def box_lists(draw, ndim, max_boxes=60):
    n = draw(st.integers(min_value=0, max_value=max_boxes))
    coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
    boxes = []
    for k in range(n):
        lo = [draw(coord) for _ in range(ndim)]
        hi = [draw(st.floats(min_value=l, max_value=101, allow_nan=False)) for l in lo]
        boxes.append(((lo, hi), k))
    return boxes


@settings(max_examples=60, deadline=None)
@given(boxes=box_lists(ndim=2), data=st.data())
def test_rtree_matches_linear_scan_2d(boxes, data):
    tree = RTree(ndim=2, max_entries=4)
    for box, payload in boxes:
        tree.insert(box, payload)
    tree.check_invariants()
    coord = st.floats(min_value=-120, max_value=120, allow_nan=False)
    qlo = [data.draw(coord) for _ in range(2)]
    qhi = [data.draw(st.floats(min_value=l, max_value=121, allow_nan=False)) for l in qlo]
    assert sorted(tree.search((qlo, qhi))) == sorted(brute_force(boxes, (qlo, qhi)))


@settings(max_examples=30, deadline=None)
@given(boxes=box_lists(ndim=3, max_boxes=40), data=st.data())
def test_rtree_matches_linear_scan_3d(boxes, data):
    tree = RTree(ndim=3, max_entries=6)
    for box, payload in boxes:
        tree.insert(box, payload)
    tree.check_invariants()
    coord = st.floats(min_value=-120, max_value=120, allow_nan=False)
    qlo = [data.draw(coord) for _ in range(3)]
    qhi = [data.draw(st.floats(min_value=l, max_value=121, allow_nan=False)) for l in qlo]
    assert sorted(tree.search((qlo, qhi))) == sorted(brute_force(boxes, (qlo, qhi)))


@settings(max_examples=30, deadline=None)
@given(boxes=box_lists(ndim=2, max_boxes=100))
def test_rtree_invariants_and_completeness(boxes):
    tree = RTree(ndim=2, max_entries=4)
    for box, payload in boxes:
        tree.insert(box, payload)
    tree.check_invariants()
    assert len(tree) == len(boxes)
    # a search with an all-covering window returns everything
    hits = tree.search(((-200, -200), (200, 200)))
    assert sorted(hits) == sorted(p for _, p in boxes)


# -- the packed tree: deep levels, infinite bounds, load-once contract ----------

INF = float("inf")


def lattice_boxes(rng, n, ndim):
    """``n`` boxes on a small integer lattice, so that touching boxes, point
    boxes and exact duplicates are common; ~5 % of bounds are infinite and
    a few boxes sit entirely at +inf or -inf."""
    lo = rng.integers(-12, 13, size=(n, ndim)).astype(float)
    hi = lo + rng.integers(0, 6, size=(n, ndim)) * rng.integers(0, 2, size=(n, ndim))
    lo[rng.random((n, ndim)) < 0.05] = -INF
    hi[rng.random((n, ndim)) < 0.05] = INF
    at_inf = rng.random((n, ndim)) < 0.01
    lo[at_inf] = hi[at_inf] = INF
    at_minus_inf = rng.random((n, ndim)) < 0.01
    lo[at_minus_inf] = hi[at_minus_inf] = -INF
    if n:
        copies = rng.integers(0, n, size=n // 5)
        lo[: len(copies)], hi[: len(copies)] = lo[copies], hi[copies]
    return [((lo[k].tolist(), hi[k].tolist()), k) for k in range(n)]


@settings(max_examples=60, deadline=None)
@given(
    ndim=st.integers(1, 3),
    n=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_tree_matches_linear_scan_with_infinite_bounds(ndim, n, seed):
    rng = np.random.default_rng(seed)
    boxes = lattice_boxes(rng, n, ndim)
    tree = RTree(ndim=ndim, max_entries=4)
    for box, payload in boxes:
        tree.insert(box, payload)
    tree.check_invariants()
    assert len(tree) == n and sorted(tree) == list(range(n))
    if n > 16:
        assert tree.height >= 3
    everything = ([-INF] * ndim, [INF] * ndim)
    assert sorted(tree.search(everything)) == list(range(n))
    for query, _ in lattice_boxes(rng, 8, ndim):
        assert sorted(tree.search(query)) == sorted(brute_force(boxes, query))


class TestPackedTree:
    def test_level_shape(self):
        """ceil(n/M) leaves, ceil of that above, and a root of <= M entries."""
        t = RTree(ndim=2, max_entries=4)
        for i in range(50):
            t.insert(((i % 7, i // 7), (i % 7 + 1, i // 7 + 1)), i)
        assert t.height == 3
        assert [len(lo) for lo, _ in t._packed()] == [50, 13, 4]
        t.check_invariants()

    @pytest.mark.parametrize("n,height", [(0, 1), (1, 1), (4, 1), (5, 2), (16, 2), (17, 3)])
    def test_height(self, n, height):
        t = RTree(ndim=1, max_entries=4)
        for i in range(n):
            t.insert(((i,), (i + 1,)), i)
        assert t.height == height
        t.check_invariants()

    def test_check_invariants_sees_a_node_that_lost_a_child(self):
        t = RTree(ndim=1, max_entries=4)
        for i in range(20):
            t.insert(((i,), (i + 1,)), i)
        t.check_invariants()
        t._packed()[1][1][0] -= 2.0  # shrink the first leaf's upper bound
        with pytest.raises(AssertionError):
            t.check_invariants()

    def test_insert_after_search_is_found_by_the_next_search(self):
        t = RTree(ndim=2, max_entries=4)
        for i in range(30):
            t.insert(((i, 0), (i + 1, 1)), i)
        assert sorted(t.search(((100, 100), (101, 101)))) == []
        t.insert(((100, 100), (100, 100)), "late")
        assert t.search(((100, 100), (101, 101))) == ["late"]
        assert len(t) == 31
        t.check_invariants()
        # and again, interleaved: every insert is visible to the next search
        for i in range(31, 40):
            t.insert(((i, 0), (i + 1, 1)), i)
            assert i in t.search(((i + 0.5, 0), (i + 0.5, 1)))

    def test_unbounded_box_and_unbounded_query(self):
        t = RTree(ndim=2)
        t.insert(((-INF, 0), (INF, 1)), "strip")
        t.insert(((5, 5), (6, 6)), "cell")
        t.insert(((INF, INF), (INF, INF)), "corner")
        assert t.search(((1e300, 0.5), (1e300, 0.5))) == ["strip"]
        assert sorted(t.search(((-INF, -INF), (INF, INF)))) == ["cell", "corner", "strip"]
        assert sorted(t.search(((6, 1), (INF, INF)))) == ["cell", "corner", "strip"]
        assert t.search(((7, 2), (INF, INF))) == ["corner"]

    def test_bad_queries_rejected(self):
        t = RTree(ndim=2)
        t.insert(((0, 0), (1, 1)), "a")
        with pytest.raises(ValueError):
            t.search(((0,), (1,)))
        with pytest.raises(ValueError):
            t.search(((2, 2), (1, 1)))
        with pytest.raises(ValueError):
            t.search(((float("nan"), 0), (1, 1)))


@settings(max_examples=60, deadline=None)
@given(
    ndim=st.integers(1, 3),
    n=st.integers(0, 200),
    capacity=st.integers(2, 16),
    queries=st.sampled_from([0, 1, 2, 9, 40]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hit_masks_equal_a_linear_scan_box_by_box(ndim, n, capacity, queries, seed):
    """One walk for a block of query boxes answers each box as the linear
    scan does, in insertion order: infinite, degenerate and duplicate
    bounds, every node capacity, blocks of none, one and many."""
    rng = np.random.default_rng(seed)
    boxes = lattice_boxes(rng, n, ndim)
    tree = RTree(ndim=ndim, max_entries=capacity)
    for box, payload in boxes:
        tree.insert(box, payload)
    block = [query for query, _ in lattice_boxes(rng, queries, ndim)]
    masks = tree.hit_masks(block)
    assert masks.shape == (len(block), n)
    for query, row in zip(block, masks):
        assert [boxes[i][1] for i in np.flatnonzero(row)] == brute_force(boxes, query)
    if block:
        assert tree.search(block[0]) == brute_force(boxes, block[0])
