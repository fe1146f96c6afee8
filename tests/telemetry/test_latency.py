"""Tests for exact (nearest-rank) latency accounting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.telemetry import LatencyTracker, percentile
from repro.telemetry.latency import goodput


def _oracle(values, basis_points):
    """Sorted-scan oracle: walk the sorted values until the cumulative
    sample fraction reaches q% (the textbook nearest-rank reading),
    in exact integer arithmetic (q as 0.01-percentile basis points),
    independently of percentile()'s ceil-division shortcut."""
    ordered = sorted(values)
    n = len(ordered)
    for i, v in enumerate(ordered, start=1):
        if i * 10000 >= basis_points * n:
            return v
    return ordered[-1]


class TestPercentile:
    def test_nearest_rank_returns_observed_values(self):
        vals = [0.3, 0.1, 0.2, 0.4]
        assert percentile(vals, 50) == 0.2
        assert percentile(vals, 100) == 0.4
        assert percentile(vals, 0) == 0.1
        assert percentile(vals, 99) == 0.4

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_result_is_always_a_sample(self):
        vals = [float(i) for i in range(17)]
        for q in (1, 25, 50, 75, 90, 99):
            assert percentile(vals, q) in vals

    def test_empty_and_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_ties_counted_with_multiplicity(self):
        vals = [1.0, 1.0, 1.0, 9.0]
        assert percentile(vals, 75) == 1.0
        assert percentile(vals, 76) == 9.0
        assert percentile([5.0] * 10, 99) == 5.0

    def test_q_granularity_is_one_basis_point(self):
        # q is truncated to 0.01-percentile granularity: digits beyond
        # the second decimal never move the rank
        vals = [float(i) for i in range(10_000)]
        assert percentile(vals, 99.99) == percentile(vals, 99.994)
        assert percentile(vals, 99.99) != percentile(vals, 100)

    @given(
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=60,
        ),
        basis_points=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_sorted_scan_oracle(self, values, basis_points):
        q = basis_points / 100.0
        # only exercise q values exact at the documented 0.01 granularity
        assert int(q * 100) == basis_points or math.isclose(
            int(q * 100), basis_points, abs_tol=1
        )
        got = percentile(values, q)
        assert got == _oracle(values, int(q * 100))
        assert got in values


class TestGoodput:
    def test_zero_and_positive_makespan(self):
        assert goodput(0, 0.0) == 0.0
        assert goodput(5, 0.0) == 0.0
        assert goodput(6, 3.0) == 2.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            goodput(-1, 2.0)
        with pytest.raises(ValueError):
            goodput(3, -0.5)


class TestLatencyTracker:
    def test_summary_sorted_and_exact(self):
        t = LatencyTracker()
        t.record("b", 2.0)
        t.record("a", 1.0)
        t.record("b", 4.0)
        summary = t.summary()
        assert list(summary) == ["a", "b"]
        assert summary["b"] == {
            "count": 2.0, "mean": 3.0, "p50": 2.0, "p99": 4.0, "max": 4.0,
        }

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyTracker().record("t", -0.1)
