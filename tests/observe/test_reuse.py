"""Unit and property tests for the reuse-analysis layer in isolation:
stack distances against a naive oracle, curve shape and working-set
window reconciliation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.observe.reuse import (
    AccessTraceRecorder,
    miss_ratio_curve,
    reuse_distances,
    working_set_windows,
)


def oracle_distances(trace):
    """O(n^2) reference: simulate the LRU stack directly.

    The stack holds (key, nbytes) most-recent-first; an access's
    distance is the sum of sizes from the top of the stack down to and
    including the key's previous entry, or None on first touch.
    """
    stack = []  # [(key, nbytes)], index 0 = most recent
    out = []
    for kind, key, nbytes in trace:
        pos = next((i for i, (k, _) in enumerate(stack) if k == key), None)
        if kind == "drop":
            if pos is not None:
                stack.pop(pos)
            continue
        if pos is None:
            out.append(None)
        else:
            out.append(sum(n for _, n in stack[: pos + 1]))
            stack.pop(pos)
        stack.insert(0, (key, nbytes))
    return out


def trace_strategy():
    op = st.tuples(
        st.sampled_from(["access", "access", "access", "drop"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=64),
    ).map(lambda t: (t[0], t[1], 0 if t[0] == "drop" else t[2]))
    return st.lists(op, max_size=120)


class TestReuseDistances:
    def test_simple_string(self):
        # a(8) b(4) a(8): second a sees its own 8 resident bytes + b's 4
        trace = [("access", "a", 8), ("access", "b", 4), ("access", "a", 8)]
        assert reuse_distances(trace) == [None, None, 12]

    def test_drop_resets_to_compulsory(self):
        trace = [
            ("access", "a", 8),
            ("drop", "a", 0),
            ("access", "a", 8),
        ]
        assert reuse_distances(trace) == [None, None]

    def test_repeated_access_uses_latest_size(self):
        # re-access with a different size: the stack holds the newer size
        trace = [
            ("access", "a", 8),
            ("access", "a", 16),
            ("access", "a", 16),
        ]
        assert reuse_distances(trace) == [None, 8, 16]

    def test_rejects_unknown_op_and_negative_bytes(self):
        with pytest.raises(ValueError):
            reuse_distances([("evict", "a", 8)])
        with pytest.raises(ValueError):
            reuse_distances([("access", "a", -1)])

    @given(trace_strategy())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, trace):
        assert reuse_distances(trace) == oracle_distances(trace)


class TestMissRatioCurve:
    @given(trace_strategy(), st.lists(
        st.integers(min_value=0, max_value=512), min_size=1, max_size=8,
    ))
    @settings(max_examples=100, deadline=None)
    def test_monotone_non_increasing(self, trace, capacities):
        points = miss_ratio_curve(reuse_distances(trace), capacities)
        caps = [p["capacity_bytes"] for p in points]
        assert caps == sorted(set(caps))
        misses = [p["misses"] for p in points]
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        for p in points:
            assert p["hits"] + p["misses"] == p["accesses"]

    def test_exact_split_at_capacity(self):
        # distances 12 and 20: capacity 12 admits one, 20 admits both
        distances = [None, None, 12, 20]
        by_cap = {
            p["capacity_bytes"]: p["hits"]
            for p in miss_ratio_curve(distances, [11, 12, 20])
        }
        assert by_cap == {11: 0, 12: 1, 20: 2}

    def test_empty_trace(self):
        (point,) = miss_ratio_curve([], [64])
        assert point == {
            "capacity_bytes": 64, "accesses": 0, "hits": 0, "misses": 0,
            "miss_ratio": 0.0,
        }


class TestWorkingSetWindows:
    def test_window_sums_reconcile(self):
        events = [
            (0.1, "miss", "a", 8),
            (0.2, "hit", "a", 8),
            (1.4, "miss", "b", 4),
            (2.9, "hit", "a", 8),
        ]
        windows = working_set_windows(events, width=1.0, t_end=3.0)
        assert sum(w["accesses"] for w in windows) == len(events)
        assert [w["distinct_bytes"] for w in windows] == [8, 4, 8]
        assert windows[0]["hits"] == 1 and windows[0]["misses"] == 1

    def test_accesses_out_of_time_order_are_refused(self):
        with pytest.raises(ValueError, match="time order"):
            working_set_windows([(1.5, "hit", "a", 8), (0.2, "hit", "b", 8)], 1.0, 2.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_a_recorder_refuses_an_unusable_window(self, window):
        # the trace folds into windows while the serve runs, so a bad
        # width has to be refused before the first access
        with pytest.raises(ValueError, match="window"):
            AccessTraceRecorder(lambda: 0.0, window=window)

    def test_final_window_closed(self):
        # an access exactly at t_end lands in the last window, not past it
        windows = working_set_windows(
            [(2.0, "hit", "a", 8)], width=1.0, t_end=2.0
        )
        assert windows[-1]["accesses"] == 1
