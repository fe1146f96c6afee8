"""Benchmark regression tracker: makespan and digest diffing, the check CLI."""

import json

import pytest

from benchmarks import harness


class TestIterMakespans:
    def test_finds_nested_leaves_sorted(self):
        payload = {
            "b": {"makespan_s": 2.0},
            "a": {"ij": {"makespan_s": 1.0}, "list": [{"makespan_s": 3.0}]},
        }
        assert harness.iter_makespans(payload) == [
            ("a/ij/makespan_s", 1.0),
            ("a/list/0/makespan_s", 3.0),
            ("b/makespan_s", 2.0),
        ]

    def test_ignores_other_keys(self):
        assert harness.iter_makespans({"ij_pred_s": 1.0, "phases": {}}) == []


class TestCompareBenchmarks:
    BASE = {"cfg": {"ij": {"makespan_s": 1.0}, "gh": {"makespan_s": 2.0}}}

    def test_identical_is_clean(self):
        regressions, notes = harness.compare_benchmarks(self.BASE, self.BASE)
        assert regressions == [] and notes == []

    def test_regression_beyond_tolerance_flagged(self):
        current = {"cfg": {"ij": {"makespan_s": 1.5},
                           "gh": {"makespan_s": 2.0}}}
        regressions, _ = harness.compare_benchmarks(
            current, self.BASE, tolerance=0.02
        )
        assert len(regressions) == 1
        assert "cfg/ij/makespan_s" in regressions[0]
        assert "+50.00%" in regressions[0]

    def test_within_tolerance_is_a_note(self):
        current = {"cfg": {"ij": {"makespan_s": 1.01},
                           "gh": {"makespan_s": 2.0}}}
        regressions, notes = harness.compare_benchmarks(
            current, self.BASE, tolerance=0.02
        )
        assert regressions == []
        assert len(notes) == 1

    def test_improvement_is_a_note_not_a_failure(self):
        current = {"cfg": {"ij": {"makespan_s": 0.5},
                           "gh": {"makespan_s": 2.0}}}
        regressions, notes = harness.compare_benchmarks(current, self.BASE)
        assert regressions == []
        assert any("-50.00%" in n for n in notes)

    def test_missing_leaf_is_a_regression(self):
        current = {"cfg": {"ij": {"makespan_s": 1.0}}}
        regressions, _ = harness.compare_benchmarks(current, self.BASE)
        assert regressions == ["cfg/gh/makespan_s: missing from current results"]

    def test_new_leaf_is_a_note(self):
        current = {"cfg": {"ij": {"makespan_s": 1.0},
                           "gh": {"makespan_s": 2.0},
                           "new": {"makespan_s": 9.0}}}
        _, notes = harness.compare_benchmarks(current, self.BASE)
        assert any("no baseline" in n for n in notes)

    def test_digest_leaves_compare_exactly(self):
        base = {"fifo": {"makespan_s": 1.0, "digest": "aa"}, "runs": [{"digest": "bb"}]}
        assert harness.compare_benchmarks(base, base) == ([], [])
        flipped = {"fifo": {"makespan_s": 1.0, "digest": "ab"}, "runs": [{"digest": "bb"}]}
        regressions, _ = harness.compare_benchmarks(flipped, base)
        assert len(regressions) == 1
        assert regressions[0].startswith("fifo/digest: aa -> ab")
        gone = {"fifo": {"makespan_s": 1.0, "digest": "aa"}, "runs": [{}]}
        regressions, _ = harness.compare_benchmarks(gone, base)
        assert regressions == ["runs/0/digest: missing from current results"]
        _, notes = harness.compare_benchmarks(base, gone)
        assert notes == ["runs/0/digest: new (no baseline), bb"]


class TestTrackerCli:
    @pytest.fixture()
    def dirs(self, tmp_path, monkeypatch):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        monkeypatch.setattr(harness, "RESULTS_DIR", results)
        monkeypatch.setattr(harness, "BASELINES_DIR", baselines)
        return results, baselines

    def test_bench_then_check_round_trip(self, dirs, capsys):
        results, baselines = dirs
        assert harness.main(["bench"]) == 0
        artifact = results / "BENCH_bench_regression.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert set(payload) == {"switched_small", "nfs_small"}
        # first check creates the baseline, second check passes against it
        assert harness.main(["check"]) == 0
        assert (baselines / "BENCH_bench_regression.json").exists()
        assert harness.main(["check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_fails_on_regression(self, dirs, capsys):
        results, baselines = dirs
        assert harness.main(["bench"]) == 0
        assert harness.main(["check"]) == 0  # creates baseline
        # shrink every baseline makespan: current now "regressed"
        base_path = baselines / "BENCH_bench_regression.json"
        baseline = json.loads(base_path.read_text())
        for cfg in baseline.values():
            for algo in ("ij", "gh"):
                cfg[algo]["makespan_s"] *= 0.5
        base_path.write_text(json.dumps(baseline))
        capsys.readouterr()
        assert harness.main(["check"]) == 1
        assert "REGRESSION" in capsys.readouterr().err
        # --update repairs the baseline
        assert harness.main(["check", "--update"]) == 0
        assert harness.main(["check"]) == 0

    def test_check_fails_on_flipped_digest(self, dirs, capsys):
        """A makespan-identical artifact whose digest moved fails `check`
        until `--update` records it (BENCH_server drifted this way once)."""
        results, baselines = dirs
        results.mkdir()
        artifact = results / "BENCH_server.json"
        artifact.write_text(json.dumps({"fifo": {"makespan_s": 1.0, "digest": "aa"}}))
        assert harness.main(["check", "server"]) == 0  # creates baseline
        assert harness.main(["check", "server"]) == 0
        artifact.write_text(json.dumps({"fifo": {"makespan_s": 1.0, "digest": "ab"}}))
        capsys.readouterr()
        assert harness.main(["check", "server"]) == 1
        assert "fifo/digest: aa -> ab" in capsys.readouterr().err
        assert harness.main(["check", "server", "--update"]) == 0
        assert harness.main(["check", "server"]) == 0

    def test_check_without_artifact_fails(self, dirs, capsys):
        assert harness.main(["check"]) == 1
        assert "no current artifact" in capsys.readouterr().err

    def test_bench_appends_dated_history_line(self, dirs, capsys):
        results, _ = dirs
        assert harness.main(["bench"]) == 0
        assert harness.main(["bench"]) == 0
        history = results / "history.jsonl"
        lines = [
            json.loads(line)
            for line in history.read_text().splitlines() if line
        ]
        assert len(lines) == 2
        for entry in lines:
            assert set(entry) == {"artifact", "date", "makespans"}
            assert entry["artifact"] == "bench_regression"
            # ISO date, e.g. 2026-08-08
            assert len(entry["date"].split("-")) == 3
            assert "switched_small/ij/makespan_s" in entry["makespans"]
        # deterministic simulation: both runs logged identical makespans
        assert lines[0]["makespans"] == lines[1]["makespans"]

    def test_committed_baseline_matches_current_behaviour(self):
        """The baseline in git must reproduce on this checkout — the same
        determinism CI relies on."""
        baseline_path = harness.BASELINES_DIR / "BENCH_bench_regression.json"
        baseline = json.loads(baseline_path.read_text())
        current = harness.run_tracked_benchmarks()
        regressions, notes = harness.compare_benchmarks(current, baseline)
        assert regressions == []
        # deterministic simulation: not merely within tolerance, identical
        assert harness.iter_makespans(current) == harness.iter_makespans(baseline)
