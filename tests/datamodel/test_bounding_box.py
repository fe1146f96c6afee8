"""Unit and property tests for BoundingBox / Interval algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.datamodel import BoundingBox, Interval


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------


class TestInterval:
    def test_valid_construction(self):
        iv = Interval(1.0, 2.0)
        assert iv.lo == 1.0 and iv.hi == 2.0

    def test_degenerate_interval_is_legal(self):
        iv = Interval(3.0, 3.0)
        assert iv.lo == iv.hi == 3.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("nan"))

    def test_unbounded(self):
        iv = Interval.unbounded()
        assert iv.is_unbounded
        assert iv.lo < -1e300 and iv.hi > 1e300

    def test_overlap_shared_endpoint(self):
        assert Interval(0, 1).overlaps(Interval(1, 2))
        assert Interval(1, 2).overlaps(Interval(0, 1))

    def test_disjoint(self):
        assert not Interval(0, 1).overlaps(Interval(1.5, 2))

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 3))
        assert not Interval(0, 10).contains_interval(Interval(2, 11))

    def test_union(self):
        assert Interval(0, 1).union(Interval(5, 6)) == Interval(0, 6)

    def test_intersect_disjoint_returns_none(self):
        assert Interval(0, 1).intersect(Interval(2, 3)) is None

    def test_intersect_overlap(self):
        assert Interval(0, 5).intersect(Interval(3, 9)) == Interval(3, 5)


# ---------------------------------------------------------------------------
# BoundingBox basics
# ---------------------------------------------------------------------------


class TestBoundingBoxBasics:
    def test_paper_figure1_box(self):
        # lower-left chunk of T1: [(0, 0, 0.2, 0.3), (64, 64, 0.8, 0.5)]
        box = BoundingBox(
            {"x": (0, 64), "y": (0, 64), "oilp": (0.2, 0.8), "soil": (0.3, 0.5)}
        )
        assert box.interval("x") == Interval(0, 64)
        assert box.interval("soil") == Interval(0.3, 0.5)

    def test_missing_attribute_is_unbounded(self):
        box = BoundingBox({"x": (0, 1)})
        assert box.interval("y").is_unbounded
        assert "y" not in box

    def test_unbounded_entries_are_normalised_away(self):
        box = BoundingBox({"x": Interval.unbounded(), "y": (0, 1)})
        assert box.attributes == ("y",)

    def test_equality_and_hash(self):
        a = BoundingBox({"x": (0, 1), "y": (2, 3)})
        b = BoundingBox({"y": (2, 3), "x": (0, 1)})
        assert a == b
        assert hash(a) == hash(b)

    def test_tuple_shorthand(self):
        assert BoundingBox({"x": (0, 1)}) == BoundingBox({"x": Interval(0, 1)})

    def test_repr_mentions_bounds(self):
        assert "x=[0,1]" in repr(BoundingBox({"x": (0, 1)}))


class TestBoundingBoxGeometry:
    def test_overlap_on_shared_attrs(self):
        a = BoundingBox({"x": (0, 10), "y": (0, 10)})
        b = BoundingBox({"x": (5, 15), "y": (5, 15)})
        assert a.overlaps(b)

    def test_disjoint_on_one_attr(self):
        a = BoundingBox({"x": (0, 10), "y": (0, 10)})
        b = BoundingBox({"x": (5, 15), "y": (11, 15)})
        assert not a.overlaps(b)

    def test_overlap_restricted_to_join_attrs(self):
        a = BoundingBox({"x": (0, 10), "y": (0, 10)})
        b = BoundingBox({"x": (5, 15), "y": (11, 15)})
        # on x alone they do overlap — the join-index test on join attr x only
        assert a.overlaps(b, on=("x",))

    def test_overlap_with_attribute_only_on_one_side(self):
        # attribute bounded on one side only: other side unbounded -> overlap
        a = BoundingBox({"x": (0, 10), "oilp": (0.2, 0.8)})
        b = BoundingBox({"x": (5, 15)})
        assert a.overlaps(b)

    def test_empty_box_overlaps_everything(self):
        assert BoundingBox.empty().overlaps(BoundingBox({"x": (0, 1)}))

    def test_contains_box(self):
        outer = BoundingBox({"x": (0, 10)})
        inner = BoundingBox({"x": (2, 3), "y": (5, 6)})
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)  # outer's x exceeds; y unbounded on outer

    def test_union_drops_one_sided_attrs(self):
        # Section 4.1: union of pair bounds; attr bounded on one side only
        # becomes unbounded in the union.
        a = BoundingBox({"x": (0, 10), "oilp": (0.2, 0.8)})
        b = BoundingBox({"x": (5, 15), "wp": (0.1, 0.9)})
        u = a.union(b)
        assert u.interval("x") == Interval(0, 15)
        assert u.interval("oilp").is_unbounded
        assert u.interval("wp").is_unbounded

    def test_intersect(self):
        a = BoundingBox({"x": (0, 10), "y": (0, 4)})
        b = BoundingBox({"x": (5, 15)})
        i = a.intersect(b)
        assert i is not None
        assert i.interval("x") == Interval(5, 10)
        assert i.interval("y") == Interval(0, 4)

    def test_intersect_disjoint_is_none(self):
        assert BoundingBox({"x": (0, 1)}).intersect(BoundingBox({"x": (2, 3)})) is None


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw):
    lo = draw(finite)
    hi = draw(st.floats(min_value=lo, max_value=1e6, allow_nan=False))
    return Interval(lo, hi)


@st.composite
def boxes(draw, attrs=("x", "y", "z")):
    names = draw(st.sets(st.sampled_from(attrs)))
    return BoundingBox({n: draw(intervals()) for n in names})


@given(intervals(), intervals())
def test_interval_overlap_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(intervals(), intervals())
def test_interval_union_contains_both(a, b):
    u = a.union(b)
    assert u.contains_interval(a) and u.contains_interval(b)


@given(intervals(), intervals())
def test_interval_intersect_consistent_with_overlap(a, b):
    inter = a.intersect(b)
    assert (inter is not None) == a.overlaps(b)
    if inter is not None:
        assert a.contains_interval(inter) and b.contains_interval(inter)


@given(boxes(), boxes())
def test_box_overlap_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(boxes(), boxes())
def test_box_union_contains_both(a, b):
    u = a.union(b)
    assert u.contains_box(a) and u.contains_box(b)


@given(boxes(), boxes())
def test_box_intersection_agrees_with_overlap(a, b):
    assert (a.intersect(b) is not None) == a.overlaps(b)


@given(boxes(), boxes(), boxes())
def test_box_overlap_monotone_under_union(a, b, c):
    # if a overlaps b, then a overlaps (b union c)
    if a.overlaps(b):
        assert a.overlaps(b.union(c))


@given(boxes())
def test_box_overlaps_itself(a):
    assert a.overlaps(a)
    assert a.contains_box(a)
