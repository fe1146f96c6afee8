"""Tests for record-level predicates and their bounding-box relaxations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datamodel import BoundingBox, Schema, SubTable, SubTableId
from repro.query import And, Comparison, Or, RangePredicate, TruePredicate


@pytest.fixture
def sub():
    schema = Schema.of("x", "y", "wp", coordinates=("x", "y"))
    n = 20
    return SubTable(
        SubTableId(1, 0),
        schema,
        {
            "x": np.arange(n, dtype=np.float32),
            "y": (np.arange(n) % 5).astype(np.float32),
            "wp": np.linspace(0, 1, n).astype(np.float32),
        },
    )


class TestComparison:
    @pytest.mark.parametrize(
        "op,expected",
        [("<", 5), ("<=", 6), (">", 14), (">=", 15), ("=", 1), ("!=", 19)],
    )
    def test_operators(self, sub, op, expected):
        assert Comparison("x", op, 5.0).mask(sub).sum() == expected

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            Comparison("x", "~", 1.0)

    def test_bbox_relaxations(self):
        # strict bounds relax to the closed box just inside the bound
        assert Comparison("x", "<", 5.0).bbox().interval("x").hi == math.nextafter(5.0, -math.inf)
        assert Comparison("x", ">", 5.0).bbox().interval("x").lo == math.nextafter(5.0, math.inf)
        assert Comparison("x", "<=", 5.0).bbox().interval("x").hi == 5.0
        assert Comparison("x", ">=", 5.0).bbox().interval("x").lo == 5.0
        eq = Comparison("x", "=", 5.0).bbox().interval("x")
        assert eq.lo == eq.hi == 5.0
        assert Comparison("x", "!=", 5.0).bbox() == BoundingBox.empty()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int32])
    @pytest.mark.parametrize("op", ["<", ">"])
    @pytest.mark.parametrize("value", [5.0, 5.5, 0.1, -0.0, 2.0**24 + 1, 2.0**53 + 2])
    def test_strict_box_is_conservative(self, dtype, op, value):
        """Every record the mask keeps lies inside the strict box, for
        values on, beside and between a column type's representable points."""
        near = np.array([value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)])
        x = np.concatenate([near + d for d in (-2, -1, 0, 1, 2)])
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            x = np.clip(np.floor(x), info.min, info.max)
        x = x.astype(dtype)
        sub = SubTable(SubTableId(1, 0), Schema.of("x", coordinates=("x",)), {"x": x})
        pred = Comparison("x", op, value)
        box = pred.bbox().interval("x")
        kept = x[pred.mask(sub)].astype(np.float64)
        assert ((kept >= box.lo) & (kept <= box.hi)).all()


class TestRange:
    def test_mask_closed_interval(self, sub):
        assert RangePredicate("x", 3, 7).mask(sub).sum() == 5

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RangePredicate("x", 7, 3)

    def test_bbox(self):
        box = RangePredicate("x", 3, 7).bbox()
        assert box.interval("x").lo == 3 and box.interval("x").hi == 7


class TestBoolean:
    def test_and(self, sub):
        p = And((RangePredicate("x", 0, 9), Comparison("y", "=", 0.0)))
        mask = p.mask(sub)
        # x in 0..9 and y == 0: x in {0, 5}
        assert mask.sum() == 2

    def test_or(self, sub):
        p = Or((Comparison("x", "=", 0.0), Comparison("x", "=", 19.0)))
        assert p.mask(sub).sum() == 2

    def test_true_predicate(self, sub):
        assert TruePredicate().mask(sub).all()
        assert TruePredicate().bbox() == BoundingBox.empty()

    def test_attrs_is_every_attribute_read(self):
        assert TruePredicate().attrs() == set()
        branch = And((RangePredicate("y", 0, 2), Comparison("v", "!=", 1)))
        tree = Or((Comparison("x", "<", 3), branch))
        assert tree.attrs() == {"x", "y", "v"}
        assert And((tree, TruePredicate())).attrs() == {"x", "y", "v"}

    def test_and_bbox_intersects(self):
        p = And((RangePredicate("x", 0, 10), RangePredicate("x", 5, 20)))
        iv = p.bbox().interval("x")
        assert iv.lo == 5 and iv.hi == 10

    def test_or_bbox_hull(self):
        p = Or((RangePredicate("x", 0, 2), RangePredicate("x", 8, 10)))
        iv = p.bbox().interval("x")
        assert iv.lo == 0 and iv.hi == 10

    def test_or_bbox_drops_mixed_attrs(self):
        # one branch constrains x, the other y: neither survives the union
        p = Or((RangePredicate("x", 0, 2), RangePredicate("y", 0, 2)))
        assert p.bbox() == BoundingBox.empty()

    def test_empty_children_rejected(self):
        with pytest.raises(ValueError):
            And(())
        with pytest.raises(ValueError):
            Or(())


@given(
    lo=st.floats(min_value=0, max_value=10, allow_nan=False),
    width=st.floats(min_value=0, max_value=10, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bbox_relaxation_is_conservative(lo, width, seed):
    """Every record matching the predicate lies inside bbox() — the property
    chunk pruning relies on."""
    schema = Schema.of("x", "wp")
    rng = np.random.default_rng(seed)
    sub = SubTable(
        SubTableId(0, 0),
        schema,
        {
            "x": (rng.random(50) * 20).astype(np.float32),
            "wp": rng.random(50).astype(np.float32),
        },
    )
    pred = Or((
        RangePredicate("x", lo, lo + width),
        And((Comparison("x", ">", lo), Comparison("wp", "<", 0.5))),
    ))
    mask = pred.mask(sub)
    box = pred.bbox()
    matching = sub.select(mask)
    for name in ("x", "wp"):
        iv, col = box.interval(name), matching.column(name)
        assert np.all((iv.lo <= col) & (col <= iv.hi))
