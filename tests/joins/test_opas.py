"""Tests for the OPAS pair-ordering heuristics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import SubTableId
from repro.joins import build_join_index
from benchmarks.opas import (
    evaluate_order,
    optimal_order_bruteforce,
    order_bfs_clustered,
    order_greedy_opas,
    order_lexicographic,
)
from repro.workloads import GridSpec, make_grid_chunk_descriptors
from repro.workloads.generator import dim_names


def L(i):
    return SubTableId(1, i)


def R(i):
    return SubTableId(2, i)


def uniform_sizes(pairs, size=10):
    sizes = {}
    for l, r in pairs:
        sizes[l] = size
        sizes[r] = size
    return sizes


class TestEvaluateOrder:
    def test_counts_loads_and_hits(self):
        pairs = [(L(0), R(0)), (L(0), R(1))]
        sizes = uniform_sizes(pairs)
        # cache large enough to keep everything
        cost = evaluate_order(pairs, sizes, cache_bytes=1000)
        assert cost.loads == 3  # L0, R0, R1
        assert cost.hits == 1  # L0 reused
        assert cost.bytes_loaded == 30

    def test_thrashing_under_tiny_cache(self):
        # cache fits one pair only (left charged 2x): alternating lefts thrash
        pairs = [(L(0), R(0)), (L(1), R(0)), (L(0), R(1)), (L(1), R(1))]
        sizes = uniform_sizes(pairs)
        bad_order = [(L(0), R(0)), (L(1), R(0)), (L(0), R(1)), (L(1), R(1))]
        cost = evaluate_order(bad_order, sizes, cache_bytes=30)
        assert cost.loads > 4  # must re-fetch something

    def test_zero_loads_impossible(self):
        pairs = [(L(0), R(0))]
        cost = evaluate_order(pairs, uniform_sizes(pairs), cache_bytes=100)
        assert cost.loads == 2


class TestOrderings:
    def make_cross_component(self):
        """Two interleaved components: lexicographic order is already
        clustered, so shuffle via construction with shared rights."""
        pairs = []
        for c in range(3):
            for k in range(3):
                pairs.append((L(c), R(3 * c + k)))
        return pairs

    def test_lexicographic_sorts(self):
        pairs = self.make_cross_component()
        out = order_lexicographic(reversed(pairs))
        assert out == sorted(pairs)

    def test_all_orderings_are_permutations(self):
        pairs = self.make_cross_component()
        sizes = uniform_sizes(pairs)
        for order in (
            order_lexicographic(pairs),
            order_bfs_clustered(pairs),
            order_greedy_opas(pairs, sizes, cache_bytes=60),
        ):
            assert sorted(order) == sorted(pairs)

    def test_bfs_keeps_components_contiguous(self):
        # two disconnected components; BFS must not interleave them
        comp_a = [(L(0), R(0)), (L(0), R(1)), (L(1), R(0))]
        comp_b = [(L(5), R(5)), (L(5), R(6))]
        order = order_bfs_clustered(comp_b + comp_a)
        ids = [0 if p in comp_a else 1 for p in order]
        # once we switch component, we never switch back
        assert ids == sorted(ids)

    def test_greedy_beats_worst_case_order(self):
        """On a grid-shaped pair set with a tight cache, greedy OPAS loads
        no more than a deliberately bad (column-major) order."""
        pairs = [(L(i), R(j)) for i in range(4) for j in range(4)]
        sizes = uniform_sizes(pairs)
        cache = 70  # fits ~ 2 lefts (2x10) + 3 rights
        bad = sorted(pairs, key=lambda p: (p[1], p[0]))  # sweep rights slowly
        greedy = order_greedy_opas(pairs, sizes, cache)
        c_bad = evaluate_order(bad, sizes, cache)
        c_greedy = evaluate_order(greedy, sizes, cache)
        assert c_greedy.loads <= c_bad.loads

    def test_greedy_optimal_when_cache_ample(self):
        pairs = [(L(i), R(i)) for i in range(5)]
        sizes = uniform_sizes(pairs)
        greedy = order_greedy_opas(pairs, sizes, cache_bytes=10_000)
        cost = evaluate_order(greedy, sizes, cache_bytes=10_000)
        assert cost.loads == 10  # every sub-table exactly once

    def test_bruteforce_limit(self):
        pairs = [(L(i), R(i)) for i in range(9)]
        with pytest.raises(ValueError):
            optimal_order_bruteforce(pairs, uniform_sizes(pairs), 100)


class TestAgainstOptimal:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_heuristics_close_to_bruteforce_optimum(self, data):
        """On random tiny instances the greedy heuristic is within 1.5x of
        the exhaustive optimum (and never worse than 2x lexicographic)."""
        n_pairs = data.draw(st.integers(min_value=2, max_value=6))
        pairs = []
        seen = set()
        for _ in range(n_pairs):
            l = data.draw(st.integers(min_value=0, max_value=3))
            r = data.draw(st.integers(min_value=0, max_value=3))
            if (l, r) not in seen:
                seen.add((l, r))
                pairs.append((L(l), R(r)))
        sizes = uniform_sizes(pairs)
        cache = data.draw(st.sampled_from([30, 50, 80]))
        _, opt = optimal_order_bruteforce(pairs, sizes, cache)
        greedy = evaluate_order(order_greedy_opas(pairs, sizes, cache), sizes, cache)
        assert greedy.loads <= opt.loads * 1.5 + 1

    def test_high_edge_ratio_scenario(self):
        """The Section 6.2 pathology: one big component, cache smaller than
        the component — ordering matters; clustered orders beat random."""
        spec = GridSpec(g=(8, 8), p=(1, 8), q=(8, 1))  # single component, 64 edges
        left = make_grid_chunk_descriptors(1, spec.g, spec.p, 160, 1)
        right = make_grid_chunk_descriptors(2, spec.g, spec.q, 160, 1)
        idx = build_join_index(left, right, on=dim_names(2))
        assert len(idx.components()) == 1
        pairs = idx.pairs
        sizes = {c.id: c.size for c in left + right}
        cache = 6 * 1280  # far smaller than the 16-subtable component needs
        import random

        rng = random.Random(5)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        c_random = evaluate_order(shuffled, sizes, cache)
        c_lex = evaluate_order(order_lexicographic(pairs), sizes, cache)
        c_greedy = evaluate_order(order_greedy_opas(pairs, sizes, cache), sizes, cache)
        assert c_lex.loads <= c_random.loads
        assert c_greedy.loads <= c_lex.loads
