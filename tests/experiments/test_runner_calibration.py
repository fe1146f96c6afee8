"""Tests for the experiment runner, figure sweeps and host calibration."""

from dataclasses import replace

import pytest

from repro import PAPER_MACHINE
from repro.experiments import (
    calibrate_host_machine,
    run_figure4,
    run_figure5,
    run_figure9,
    run_point,
)
from repro.experiments.calibration import CalibrationResult
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


class TestCalibration:
    def test_measures_plausible_constants(self):
        r = calibrate_host_machine(tuples=20_000, repeats=2)
        # any machine this century: between 1ns and 100us per op
        assert 1e-9 < r.alpha_build < 1e-4
        assert 1e-9 < r.alpha_lookup < 1e-4
        assert r.tuples == 20_000 and r.repeats == 2

    def test_machine_carries_constants(self):
        r = CalibrationResult(alpha_build=1e-7, alpha_lookup=2e-7, tuples=1, repeats=1)
        m = r.machine()
        assert m.alpha_build == 1e-7
        assert m.alpha_lookup == 2e-7
        assert m.cpu_factor == 1.0
        assert m.build_cost == 1e-7  # F already folded in
        # other hardware parameters inherited from the base
        assert m.disk_read_bw == PAPER_MACHINE.disk_read_bw

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            calibrate_host_machine(tuples=0)
        with pytest.raises(ValueError):
            calibrate_host_machine(repeats=0)


class TestTermCalibrationRoundTrip:
    """Fit per-term constants on a sweep, re-plan with them, and check the
    drift on every fitted cost term shrinks (to ~1.0 on the pooled fit)."""

    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.observe import profile_execution

        points = [
            run_point(SMALL, n_s=2, n_j=2, telemetry=True),
            run_point(SMALL, n_s=2, n_j=4, telemetry=True),
            run_point(SMALL, n_s=1, n_j=2, shared_nfs=True, telemetry=True),
        ]
        records = []
        for res in points:
            for report in (res.ij_report, res.gh_report):
                records.extend(
                    profile_execution(res.params, report).drift_records()
                )
        return points, records

    @staticmethod
    def _pooled_deviation(records, calibration):
        """Per-calibration-field |pooled ratio − 1| over ``records``."""
        from repro.observe import CALIBRATION_FIELD_OF_TERM, summarize_drift

        deviation = {}
        for s in summarize_drift(records, calibration=calibration):
            field = CALIBRATION_FIELD_OF_TERM[s.term]
            pred = deviation.setdefault(field, [0.0, 0.0])
            pred[0] += s.calibrated_predicted_s
            pred[1] += s.observed_s
        return {
            field: abs(obs / pred - 1.0)
            for field, (pred, obs) in sorted(deviation.items())
        }

    def test_drift_shrinks_on_every_cost_term(self, sweep):
        from repro.core.cost_models import IDENTITY_CALIBRATION
        from repro.experiments.calibration import fit_term_calibration

        _, records = sweep
        calibration = fit_term_calibration(records)
        before = self._pooled_deviation(records, IDENTITY_CALIBRATION)
        after = self._pooled_deviation(records, calibration)
        assert set(after) == {
            "transfer", "write", "read", "cpu_build", "cpu_lookup",
        }
        for field in after:
            assert after[field] <= before[field] + 1e-12
            # the pooled fit nulls the pooled drift exactly
            assert after[field] == pytest.approx(0.0, abs=1e-9)

    def test_replanned_sweep_uses_calibrated_predictions(self, sweep):
        from repro.core.cost_models import grace_hash_cost
        from repro.experiments.calibration import fit_term_calibration

        points, records = sweep
        calibration = fit_term_calibration(records)
        assert not calibration.is_identity
        replanned = run_point(
            SMALL, n_s=2, n_j=2, calibration=calibration
        )
        assert replanned.params.calibration == calibration
        assert replanned.gh_pred == pytest.approx(
            grace_hash_cost(
                replace(points[0].params, calibration=calibration)
            ).total
        )
        # the simulation itself must not see the calibration
        assert replanned.gh_sim == points[0].gh_sim
