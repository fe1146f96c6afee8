"""CLI surfaces: ``repro explain``, ``repro run --analyze``, ``repro drift``."""

import json

import pytest

import repro.cli as cli
from repro.cli import main
from repro.experiments.runner import run_point as real_run_point

SMALL = ["--grid", "16,16,16", "--p", "4,4,4", "--q", "4,4,4",
         "--storage", "2", "--compute", "2"]


class TestExplain:
    def test_tree_lists_both_algorithms_and_choice(self, capsys):
        assert main(["explain", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "* indexed-join" in out
        assert "grace-hash" in out
        for op in ("transfer", "hash-build", "probe", "partition-write",
                   "bucket-read"):
            assert op in out
        assert "chosen QES: indexed-join" in out
        assert "config fingerprint:" in out

    def test_output_is_deterministic(self, capsys):
        main(["explain", *SMALL])
        first = capsys.readouterr().out
        main(["explain", *SMALL])
        assert capsys.readouterr().out == first

    def test_json_is_machine_readable(self, capsys):
        assert main(["explain", *SMALL, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["chosen"] == "indexed-join"
        assert set(info["algorithms"]) == {"indexed-join", "grace-hash"}
        ij_ops = info["algorithms"]["indexed-join"]["operators"]
        assert [op["name"] for op in ij_ops] == [
            "transfer", "hash-build", "probe",
        ]

    def test_explain_does_not_execute(self, monkeypatch, capsys):
        def boom(*a, **k):  # pragma: no cover - fails the test if called
            raise AssertionError("explain must not run the simulator")

        monkeypatch.setattr(cli, "run_point", boom)
        assert main(["explain", *SMALL]) == 0


class TestRunAnalyze:
    def test_profiles_show_predicted_and_observed_per_operator(
        self, capsys, tmp_path
    ):
        assert main(["run", *SMALL, "--analyze",
                     "--drift-store", str(tmp_path / "d.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "indexed-join: predicted" in out
        assert "grace-hash: predicted" in out
        # every operator row carries a pred and an obs column
        for line in out.splitlines():
            if line.startswith(("├─", "└─")):
                assert "pred" in line and "obs" in line
        assert "= makespan" in out
        assert "regret" in out

    def test_single_execution_for_trace_and_analysis(
        self, monkeypatch, tmp_path, capsys
    ):
        calls = []

        def counting_run_point(*args, **kwargs):
            calls.append(kwargs)
            return real_run_point(*args, **kwargs)

        monkeypatch.setattr(cli, "run_point", counting_run_point)
        assert main([
            "run", *SMALL, "--analyze",
            "--drift-store", str(tmp_path / "d.jsonl"),
            "--trace-out", str(tmp_path / "t.json"),
            "--analyze-json", str(tmp_path / "a.json"),
        ]) == 0
        assert len(calls) == 1
        assert calls[0]["telemetry"] is True

    def test_analyzed_run_output_extends_plain_run_byte_identically(
        self, capsys, tmp_path
    ):
        """--analyze must not perturb the run: the plain-run output is a
        byte-identical prefix of the analyzed-run output."""
        assert main(["run", *SMALL]) == 0
        plain = capsys.readouterr().out
        assert main(["run", *SMALL, "--analyze",
                     "--drift-store", str(tmp_path / "d.jsonl")]) == 0
        analyzed = capsys.readouterr().out
        assert analyzed.startswith(plain)
        assert len(analyzed) > len(plain)

    def test_analyze_json_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "analysis.json"
        assert main(["run", *SMALL, "--analyze", "--drift-store", "none",
                     "--analyze-json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"indexed-join", "grace-hash"}
        ij = payload["indexed-join"]
        assert ij["attributed_s"] == pytest.approx(ij["observed_total_s"])

    def test_drift_store_none_disables_appending(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", *SMALL, "--analyze", "--drift-store", "none"]) == 0
        assert "drift store" not in capsys.readouterr().out
        assert not (tmp_path / "benchmarks").exists()


class TestDriftCommand:
    @pytest.fixture()
    def store(self, tmp_path, capsys):
        path = tmp_path / "drift.jsonl"
        assert main(["run", *SMALL, "--analyze",
                     "--drift-store", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_empty_store_exits_2(self, tmp_path, capsys):
        assert main(["drift", "--store", str(tmp_path / "none.jsonl")]) == 2
        assert "empty" in capsys.readouterr().err

    def test_report_lists_terms_and_ratios(self, store, capsys):
        assert main(["drift", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cost-model drift report" in out
        assert "indexed-join" in out and "grace-hash" in out
        assert "ratio" in out

    def test_json_report(self, store, capsys):
        assert main(["drift", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 8
        assert all("flagged" in term for term in payload["terms"])

    def test_check_flag_sets_exit_code(self, store, capsys):
        # a huge threshold cannot flag anything
        assert main(["drift", "--store", str(store), "--check",
                     "--threshold", "1000"]) == 0
        # a zero threshold flags every term with any drift at all
        assert main(["drift", "--store", str(store), "--check",
                     "--threshold", "0"]) == 1
