"""Drift store and drift reports."""

from dataclasses import replace

import pytest

from repro.experiments.runner import run_point
from repro.observe import (
    DriftRecord,
    DriftStore,
    config_fingerprint,
    profile_execution,
    render_drift_report,
    summarize_drift,
)
from repro.workloads.generator import GridSpec

SMALL = GridSpec((16, 16, 16), (4, 4, 4), (4, 4, 4))


def _records(store_path, n=2):
    return [
        DriftRecord(
            fingerprint=f"f{i}", algorithm="indexed-join", term="probe",
            predicted_s=1.0, observed_s=2.0,
        )
        for i in range(n)
    ]


class TestFingerprint:
    def test_deterministic(self):
        res = run_point(SMALL, n_s=2, n_j=2)
        assert config_fingerprint(res.params) == config_fingerprint(res.params)

    def test_sensitive_to_config_and_mode(self):
        a = run_point(SMALL, n_s=2, n_j=2).params
        b = run_point(SMALL, n_s=2, n_j=4).params
        assert config_fingerprint(a) != config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(a, pipelined=True)


class TestDriftStore:
    def test_append_load_round_trip(self, tmp_path):
        store = DriftStore(tmp_path / "d.jsonl")
        recs = _records(store)
        assert store.append(recs) == len(recs)
        assert store.load() == sorted(
            recs, key=lambda r: (r.fingerprint, r.algorithm, r.term)
        )

    def test_append_is_byte_deterministic(self, tmp_path):
        a, b = DriftStore(tmp_path / "a.jsonl"), DriftStore(tmp_path / "b.jsonl")
        recs = _records(None)
        a.append(recs)
        b.append(list(reversed(recs)))
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()

    def test_missing_store_loads_empty(self, tmp_path):
        assert DriftStore(tmp_path / "absent.jsonl").load() == []

    def test_corrupt_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"fingerprint": "x"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            DriftStore(path).load()


class TestSummaries:
    def test_pools_by_algorithm_and_term(self):
        recs = _records(None, n=3)
        (summary,) = summarize_drift(recs)
        assert summary.runs == 3
        assert summary.ratio == pytest.approx(2.0)
        assert summary.flagged(0.25)
        assert not summary.flagged(1.5)

    def test_flagging_is_symmetric(self):
        low = DriftRecord("f", "indexed-join", "probe", 4.0, 1.0)
        (summary,) = summarize_drift([low])
        assert summary.ratio == pytest.approx(0.25)
        # 4x under-run drifts as much as 4x over-run
        assert summary.flagged(0.25)

    def test_report_text_lists_every_term(self):
        recs = _records(None) + [
            DriftRecord("f0", "grace-hash", "transfer", 1.0, 1.0)
        ]
        text = render_drift_report(summarize_drift(recs))
        assert "probe" in text and "transfer" in text
        assert "1 of 2 terms flagged" in text

    def test_tossup_records_are_called_out(self):
        recs = [DriftRecord("f", "indexed-join", "probe", 1.0, 1.0, True)]
        text = render_drift_report(summarize_drift(recs))
        assert "toss-up" in text


class TestMiscalibrationLoop:
    """The acceptance scenario: an intentionally mis-set cost term is
    flagged by the drift report."""

    @pytest.fixture(scope="class")
    def drifted(self):
        res = run_point(SMALL, n_s=2, n_j=2, telemetry=True)
        # Inflate the planner's probe constant 4x: the simulation
        # (ground truth) ran with the real machine, so the profile's
        # probe rows now under-run their prediction 4x.
        bad_params = replace(
            res.params, alpha_lookup=4 * res.params.alpha_lookup
        )
        records = []
        for report in (res.ij_report, res.gh_report):
            records.extend(
                profile_execution(bad_params, report).drift_records()
            )
        return records

    def test_miscalibrated_term_is_flagged(self, drifted):
        flagged = {
            (s.algorithm, s.term)
            for s in summarize_drift(drifted)
            if s.flagged(0.25)
        }
        assert ("indexed-join", "probe") in flagged
        assert ("grace-hash", "probe") in flagged
        assert ("indexed-join", "hash-build") not in flagged
