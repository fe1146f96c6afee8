"""Benchmark regression tracker: exact leaf-by-leaf diffing, the check CLI."""

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
        assert harness.compare_benchmarks(self.BASE, self.BASE) == []

    @pytest.mark.parametrize("current, diff", [
        ({"ij": {"makespan_s": 1.5}}, "cfg/ij/makespan_s: 1.0 -> 1.5"),
        ({"ij": {"makespan_s": 1.01}}, "cfg/ij/makespan_s: 1.0 -> 1.01"),
        ({"ij": {"makespan_s": 0.5}}, "cfg/ij/makespan_s: 1.0 -> 0.5"),
        ({"new": {"makespan_s": 9.0}}, "cfg/new/makespan_s: new (no baseline), 9.0"),
        ({"ij": {"makespan_s": 1.0, "hits": []}}, "cfg/ij/hits: new (no baseline), []"),
    ], ids=["growth", "drift", "speedup", "new-leaf", "new-empty-leaf"])
    def test_any_difference_is_named(self, current, diff):
        """No tolerance and no direction: a speedup fails like a slowdown
        until ``--update`` records it."""
        current = {"cfg": {**self.BASE["cfg"], **current}}
        assert harness.compare_benchmarks(current, self.BASE) == [diff]

    def test_missing_leaf_is_a_regression(self):
        current = {"cfg": {"ij": {"makespan_s": 1.0}}}
        assert harness.compare_benchmarks(current, self.BASE) == [
            "cfg/gh/makespan_s: missing from current results"
        ]

    def test_digest_leaves_compare_exactly(self):
        base = {"fifo": {"makespan_s": 1.0, "digest": "aa"}, "runs": [{"digest": "bb"}]}
        assert harness.compare_benchmarks(base, base) == []
        flipped = {"fifo": {"makespan_s": 1.0, "digest": "ab"}, "runs": [{"digest": "bb"}]}
        assert harness.compare_benchmarks(flipped, base) == ["fifo/digest: aa -> ab"]
        gone = {"fifo": {"makespan_s": 1.0, "digest": "aa"}, "runs": [{}]}
        assert harness.compare_benchmarks(gone, base) == [
            "runs/0: new (no baseline), {}",
            "runs/0/digest: missing from current results",
        ]


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
        assert "DIFFERS: switched_small/ij/makespan_s" in capsys.readouterr().err
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

    def test_committed_baseline_matches_current_behaviour(self):
        """The baseline in git must reproduce on this checkout — the same
        determinism CI relies on."""
        baseline_path = harness.BASELINES_DIR / "BENCH_bench_regression.json"
        baseline = json.loads(baseline_path.read_text())
        current = harness.run_tracked_benchmarks()
        assert harness.compare_benchmarks(current, baseline) == []
