"""Tests for the Section 5 cost models and Section 6.2 decision rules."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster import MachineSpec, PAPER_MACHINE
from repro.core import (
    CostParameters,
    crossover_ne_cs,
    grace_hash_cost,
    indexed_join_cost,
    io_over_f_threshold,
    preferred_algorithm,
)


def params(**overrides):
    base = dict(
        T=2**21,
        c_R=4096,
        c_S=4096,
        n_e=2**21 // 4096,  # degree 1
        RS_R=16,
        RS_S=16,
        n_s=5,
        n_j=5,
        link_bw=12.5e6,
        read_io_bw=25e6,
        write_io_bw=20e6,
        alpha_build=8e-7,
        alpha_lookup=6e-7,
    )
    base.update(overrides)
    return CostParameters(**base)


class TestParameters:
    def test_net_bw_is_thin_side_aggregate(self):
        assert params(n_s=5, n_j=3).net_bw == 3 * 12.5e6
        assert params(n_s=2, n_j=8).net_bw == 2 * 12.5e6

    def test_nfs_net_bw_is_single_link(self):
        p = params(n_s=1, shared_nfs=True)
        assert p.net_bw == 12.5e6

    def test_nfs_requires_single_server(self):
        with pytest.raises(ValueError):
            params(n_s=2, shared_nfs=True)

    def test_derived_quantities(self):
        p = params()
        assert p.m_S == p.T // p.c_S
        assert p.bytes_total == p.T * 32
        assert p.n_e / p.m_S == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            params(T=-1)
        with pytest.raises(ValueError):
            params(n_j=0)
        with pytest.raises(ValueError):
            params(link_bw=0)
        with pytest.raises(ValueError):
            params(alpha_build=-1)

    def test_from_machine_scales_alphas_by_F(self):
        m = MachineSpec(cpu_factor=2.0)
        p = CostParameters.from_machine(
            m, T=100, c_R=10, c_S=10, n_e=10, RS_R=16, RS_S=16, n_s=1, n_j=1
        )
        assert p.alpha_build == pytest.approx(PAPER_MACHINE.alpha_build / 2)
        assert p.alpha_lookup == pytest.approx(PAPER_MACHINE.alpha_lookup / 2)


class TestEquationFidelity:
    """The implementations must compute exactly the Section 5 equations."""

    def test_indexed_join_terms(self):
        p = params()
        c = indexed_join_cost(p)
        expected_transfer = p.T * 32 / min(5 * 12.5e6, 25e6 * 5)
        assert c.transfer == pytest.approx(expected_transfer)
        assert c.cpu_build == pytest.approx(8e-7 * p.T / 5)
        assert c.cpu_lookup == pytest.approx(6e-7 * p.n_e * p.c_S / 5)
        assert c.write == 0 and c.read == 0
        assert c.total == pytest.approx(c.transfer + c.cpu_build + c.cpu_lookup)

    def test_grace_hash_terms(self):
        p = params()
        c = grace_hash_cost(p)
        nbytes = p.T * 32
        assert c.transfer == pytest.approx(nbytes / min(5 * 12.5e6, 125e6))
        assert c.write == pytest.approx(nbytes / (20e6 * 5))
        assert c.read == pytest.approx(nbytes / (25e6 * 5))
        assert c.cpu_build == pytest.approx(8e-7 * p.T / 5)
        assert c.cpu_lookup == pytest.approx(6e-7 * p.T / 5)

    def test_transfer_identical_across_algorithms(self):
        p = params()
        assert indexed_join_cost(p).transfer == grace_hash_cost(p).transfer

    def test_gh_insensitive_to_ne_cs(self):
        """Figure 4's flat GH line: Total_GH does not move with n_e·c_S."""
        lo = grace_hash_cost(params(n_e=512, c_S=4096))
        hi = grace_hash_cost(params(n_e=512 * 64, c_S=4096))
        assert lo.total == hi.total

    def test_ij_lookup_linear_in_ne_cs(self):
        base = indexed_join_cost(params(n_e=512)).cpu_lookup
        double = indexed_join_cost(params(n_e=1024)).cpu_lookup
        assert double == pytest.approx(2 * base)


class TestDecisionRules:
    def test_ij_wins_at_degree_one(self):
        """Low n_e·c_S: GH pays bucket I/O for nothing (Figure 4 left)."""
        winner, ij, gh = preferred_algorithm(params())
        assert winner == "indexed-join"
        assert gh.total - ij.total == pytest.approx(gh.write + gh.read)

    def test_gh_wins_at_high_degree(self):
        """High n_e·c_S: IJ's lookups dominate (Figure 4 right)."""
        p = params(n_e=(2**21 // 4096) * 64)  # degree 64
        winner, ij, gh = preferred_algorithm(p)
        assert winner == "grace-hash"

    def test_crossover_point_consistent(self):
        """At the predicted crossover n_e·c_S the totals are equal."""
        p = params()
        x = crossover_ne_cs(p)
        n_e_at_crossover = x / p.c_S
        p_at = params(n_e=round(n_e_at_crossover))
        ij = indexed_join_cost(p_at)
        gh = grace_hash_cost(p_at)
        assert ij.total == pytest.approx(gh.total, rel=1e-3)

    def test_crossover_infinite_when_lookups_free(self):
        assert crossover_ne_cs(params(alpha_lookup=0.0)) == math.inf

    def test_io_over_f_threshold_matches_direct_comparison(self):
        """The Section 6.2 inequality must agree with comparing totals
        when its assumptions hold (readIO == writeIO, transfer equal)."""
        gamma2 = 6e-7  # alpha_lookup at F=1
        for degree in (2, 4, 8, 16, 64):
            for f in (0.25, 0.5, 1.0, 2.0, 4.0):
                p = params(
                    n_e=(2**21 // 4096) * degree,
                    read_io_bw=22e6,
                    write_io_bw=22e6,
                    alpha_build=8e-7 / f,
                    alpha_lookup=gamma2 / f,
                )
                threshold = io_over_f_threshold(p, gamma2=gamma2, f=f)
                assert threshold is not None
                inequality_says_ij = (22e6 / f) < threshold
                winner, _, _ = preferred_algorithm(p)
                assert inequality_says_ij == (winner == "indexed-join")

    def test_threshold_none_at_degree_one(self):
        assert io_over_f_threshold(params(), gamma2=6e-7) is None

    def test_faster_cpu_favours_ij(self):
        """Figure 8's trend: as F grows, IJ gains on GH."""
        p_slow = params(n_e=(2**21 // 4096) * 8)
        m_fast = MachineSpec(cpu_factor=8.0)
        p_fast = CostParameters.from_machine(
            m_fast, T=p_slow.T, c_R=p_slow.c_R, c_S=p_slow.c_S, n_e=p_slow.n_e,
            RS_R=16, RS_S=16, n_s=5, n_j=5,
        )
        gap_slow = grace_hash_cost(p_slow).total - indexed_join_cost(p_slow).total
        gap_fast = grace_hash_cost(p_fast).total - indexed_join_cost(p_fast).total
        assert gap_fast > gap_slow  # IJ's relative advantage grows with F

    def test_nfs_punishes_gh(self):
        """Figure 9: under a shared server GH's scratch I/O stops scaling."""
        p = params(n_s=1, shared_nfs=True)
        gh = grace_hash_cost(p)
        # write/read terms no longer divide by n_j
        assert gh.write == pytest.approx(p.bytes_total / min(12.5e6, 20e6))
        assert gh.read == pytest.approx(p.bytes_total / min(12.5e6, 25e6))
        winner, _, _ = preferred_algorithm(p)
        assert winner == "indexed-join"

    def test_nfs_gh_does_not_improve_with_joiners(self):
        t2 = grace_hash_cost(params(n_s=1, n_j=2, shared_nfs=True)).total
        t8 = grace_hash_cost(params(n_s=1, n_j=8, shared_nfs=True)).total
        # only the CPU term shrinks; I/O terms dominate and stay put
        assert t8 > 0.8 * t2


# -- property tests ------------------------------------------------------------------


@given(
    degree=st.integers(min_value=1, max_value=128),
    n_j=st.integers(min_value=1, max_value=16),
    rs=st.integers(min_value=4, max_value=128),
)
def test_costs_positive_and_monotone_in_degree(degree, n_j, rs):
    p = params(n_e=(2**21 // 4096) * degree, n_j=n_j, RS_R=rs, RS_S=rs)
    ij = indexed_join_cost(p)
    gh = grace_hash_cost(p)
    assert ij.total > 0 and gh.total > 0
    p2 = params(n_e=(2**21 // 4096) * degree * 2, n_j=n_j, RS_R=rs, RS_S=rs)
    assert indexed_join_cost(p2).total > ij.total
    assert grace_hash_cost(p2).total == pytest.approx(gh.total)


@given(scale=st.integers(min_value=1, max_value=64))
def test_both_models_linear_in_T(scale):
    """Figure 6: both totals scale linearly with T (degree held fixed)."""
    p1 = params()
    pk = params(T=p1.T * scale, n_e=p1.n_e * scale)
    assert indexed_join_cost(pk).total == pytest.approx(scale * indexed_join_cost(p1).total)
    assert grace_hash_cost(pk).total == pytest.approx(scale * grace_hash_cost(p1).total)
