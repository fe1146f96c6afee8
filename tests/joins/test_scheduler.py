"""Tests for the IJ pair schedulers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.joins import (
    build_join_index,
    schedule_interleaved,
    schedule_random,
    schedule_two_stage,
)
from repro.workloads import GridSpec, make_grid_chunk_descriptors
from repro.workloads.generator import dim_names

from .index_draws import index_cases


def index_for(spec):
    left = make_grid_chunk_descriptors(1, spec.g, spec.p, 16, 2)
    right = make_grid_chunk_descriptors(2, spec.g, spec.q, 16, 2)
    return build_join_index(left, right, on=dim_names(spec.ndim))


SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))  # 16 components, 64 edges


class TestTwoStage:
    def test_all_pairs_scheduled_exactly_once(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 4)
        flat = [p for pairs in sched.per_joiner for p in pairs]
        assert sorted(flat) == sorted(idx.pairs)

    def test_equal_components_balance_perfectly(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 4)
        counts = [len(p) for p in sched.per_joiner]
        assert max(counts) == min(counts)
        assert sched.imbalance() == 1.0

    def test_components_not_split_across_joiners(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 4)
        # every component's pairs land on exactly one joiner
        owner = {}
        for j, pairs in enumerate(sched.per_joiner):
            for pair in pairs:
                owner[pair] = j
        for comp in idx.components():
            owners = {owner[p] for p in comp.pairs}
            assert len(owners) == 1

    def test_pairs_sorted_lexicographically_within_joiner(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 3)
        for pairs in sched.per_joiner:
            assert pairs == sorted(pairs)

    def test_single_joiner_gets_everything(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 1)
        assert len(sched.per_joiner[0]) == idx.num_edges

    def test_more_joiners_than_components(self):
        spec = GridSpec(g=(4, 4), p=(4, 4), q=(4, 4))  # 1 component
        idx = index_for(spec)
        sched = schedule_two_stage(idx, 3)
        assert sched.total_pairs == idx.num_edges
        nonempty = [p for p in sched.per_joiner if p]
        assert len(nonempty) == 1  # a component is indivisible

    def test_invalid_joiner_count(self):
        idx = index_for(SPEC)
        with pytest.raises(ValueError):
            schedule_two_stage(idx, 0)

    def test_reference_string(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 2)
        refs = sched.reference_string(0)
        assert len(refs) == 2 * len(sched.per_joiner[0])
        assert refs[0] == sched.per_joiner[0][0][0]
        assert refs[1] == sched.per_joiner[0][0][1]


class TestAlternatives:
    def test_random_schedules_everything(self):
        idx = index_for(SPEC)
        sched = schedule_random(idx, 4, seed=1)
        flat = [p for pairs in sched.per_joiner for p in pairs]
        assert sorted(flat) == sorted(idx.pairs)
        assert sched.strategy == "random"

    def test_random_is_deterministic_per_seed(self):
        idx = index_for(SPEC)
        a = schedule_random(idx, 4, seed=7)
        b = schedule_random(idx, 4, seed=7)
        assert a.per_joiner == b.per_joiner
        c = schedule_random(idx, 4, seed=8)
        assert a.per_joiner != c.per_joiner

    def test_interleaved_splits_components(self):
        idx = index_for(SPEC)
        sched = schedule_interleaved(idx, 4)
        owner = {}
        for j, pairs in enumerate(sched.per_joiner):
            for pair in pairs:
                owner[pair] = j
        split = 0
        for comp in idx.components():
            if len({owner[p] for p in comp.pairs}) > 1:
                split += 1
        assert split > 0  # the pathology the ablation demonstrates

    def test_counts_balanced_all_strategies(self):
        idx = index_for(SPEC)
        for sched in (
            schedule_random(idx, 4),
            schedule_interleaved(idx, 4),
        ):
            counts = [len(p) for p in sched.per_joiner]
            assert max(counts) - min(counts) <= 1


@settings(max_examples=25, deadline=None)
@given(
    joiners=st.integers(min_value=1, max_value=8),
    shape=st.sampled_from([
        ((8, 8), (4, 4), (2, 2)),
        ((8, 8), (2, 8), (8, 2)),
        ((16, 8), (4, 4), (4, 4)),
    ]),
)
def test_two_stage_covers_all_pairs(joiners, shape):
    g, p, q = shape
    idx = index_for(GridSpec(g=g, p=p, q=q))
    sched = schedule_two_stage(idx, joiners)
    flat = [pair for pairs in sched.per_joiner for pair in pairs]
    assert sorted(flat) == sorted(idx.pairs)
    # balance: no joiner holds more than one extra component's worth
    comps = idx.components()
    if comps:
        max_comp = max(c.num_edges for c in comps)
        counts = [len(pairs) for pairs in sched.per_joiner]
        assert max(counts) - min(counts) <= max_comp


class TestReassign:
    """A dead joiner's unfinished pairs are dealt over the survivors."""

    def test_spreads_over_every_survivor_each_pair_once(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 4)
        orphans = list(sched.per_joiner[0])
        assert len(orphans) >= 3
        out = sched.reassign(orphans, survivors=[1, 2, 3])
        assert sorted(out) == [1, 2, 3]
        # round-robin in schedule order; a lost pair is wrong output
        assert out == {s: orphans[i::3] for i, s in enumerate([1, 2, 3])}

    def test_reassign_does_not_mutate_schedule(self):
        idx = index_for(SPEC)
        sched = schedule_two_stage(idx, 4)
        before = [list(p) for p in sched.per_joiner]
        sched.reassign(list(sched.per_joiner[0]), survivors=[1])
        assert [list(p) for p in sched.per_joiner] == before


# -- the int-form schedule against the implementation it replaced ---------------


def two_stage_as_it_was(pairs, num_joiners):
    """``PageJoinIndex.components`` + ``schedule_two_stage`` as they stood
    before the index became int arrays, transcribed: union-find over
    ``("L", id)``/``("R", id)`` keys, components ordered by smallest left
    id, dealt largest first to the least-loaded joiner, each joiner's pairs
    sorted."""
    parent = {}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l, r in pairs:
        a, b = parent.setdefault(("L", l), ("L", l)), parent.setdefault(("R", r), ("R", r))
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb
    groups = {}
    for l, r in pairs:
        groups.setdefault(find(parent[("L", l)]), []).append((l, r))
    comps = sorted((sorted(c) for c in groups.values()), key=lambda c: min(l for l, _ in c))
    per_joiner = [[] for _ in range(num_joiners)]
    loads = [0] * num_joiners
    for comp in sorted(comps, key=lambda c: -len(c)):
        target = loads.index(min(loads))
        per_joiner[target].extend(comp)
        loads[target] += len(comp)
    for mine in per_joiner:
        mine.sort()
    return per_joiner


@settings(max_examples=60, deadline=None)
@given(case=index_cases(), joiners=st.integers(min_value=1, max_value=6))
def test_int_form_schedule_equals_the_tuple_form(case, joiners):
    idx = build_join_index(case.left, case.right, on=case.on)
    boxes = case.chunk_boxes
    for index in [idx] + [idx.restrict(query, boxes) for query in case.boxes]:
        sched = schedule_two_stage(index, joiners)
        assert sched.per_joiner == two_stage_as_it_was(index.pairs, joiners)
        assert sched.strategy == "two-stage"
        # remembered on the index, per joiner count
        assert schedule_two_stage(index, joiners) is sched
        assert schedule_two_stage(index, joiners + 1) is not sched
