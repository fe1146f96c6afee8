"""Tests for the experiment runner and the figure sweeps."""

from repro import PAPER_MACHINE
from repro.experiments import (
    run_figure4,
    run_figure5,
    run_figure9,
    run_point,
)
from repro.workloads import GridSpec

SMALL = GridSpec(g=(16, 16, 16), p=(4, 4, 4), q=(4, 4, 4))


class TestRunPoint:
    def test_point_result_fields(self):
        r = run_point(SMALL, n_s=2, n_j=2)
        assert r.ij_sim > 0 and r.gh_sim > 0
        assert r.ij_pred > 0 and r.gh_pred > 0
        assert r.sim_winner in ("IJ", "GH")
        assert r.model_winner in ("IJ", "GH")
        assert 0 <= r.ij_error and 0 <= r.gh_error
        assert r.params.T == SMALL.T

    def test_functional_flag(self):
        r = run_point(SMALL, n_s=2, n_j=2, functional=True)
        assert r.ij_report.functional
        assert r.ij_report.result_tuples == SMALL.T

    def test_extra_attributes_widen_records(self):
        narrow = run_point(SMALL, 2, 2)
        wide = run_point(SMALL, 2, 2, extra_attributes=10)
        assert wide.params.RS_R == narrow.params.RS_R + 40
        assert wide.gh_sim > narrow.gh_sim

    def test_nfs_mode(self):
        r = run_point(SMALL, n_s=1, n_j=2, shared_nfs=True)
        assert r.params.shared_nfs
        assert r.params.net_bw == PAPER_MACHINE.link_bw


class TestFigureSweeps:
    """Small-scale smoke runs of the figure functions (the full-scale runs
    live in benchmarks/)."""

    def test_figure4_small(self):
        results = run_figure4(grid=(32, 32, 32), component=(8, 8, 8), steps=3,
                              n_s=2, n_j=2)
        assert len(results) == 3
        ne_cs = [x for x, _ in results]
        assert ne_cs == [r.spec.ne_cs for _, r in results]
        assert ne_cs[1] == 2 * ne_cs[0] and ne_cs[2] == 4 * ne_cs[0]
        # constant edge ratio throughout
        ratios = {r.spec.edge_ratio for _, r in results}
        assert len(ratios) == 1

    def test_figure5_small(self):
        results = run_figure5(spec=SMALL, n_s=2, n_j_sweep=(1, 2))
        assert [n for n, _ in results] == [1, 2]
        assert results[0][1].ij_sim > results[1][1].ij_sim

    def test_figure9_small(self):
        results = run_figure9(spec=SMALL, n_j_sweep=(1, 2))
        for _, r in results:
            assert r.params.shared_nfs
