"""Tests for the command-line interface."""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.telemetry.validate import main as validate_main


def walk_report_leaf_mutations(workdir, every=1):
    """Boundary fuzz by generator, not by list: every ``every``-th scalar
    leaf path of a freshly served observed report, mutated to each of four
    wrong JSON values, leaves every reader of the file rendering it or
    refusing it in one ``error: <path>: <reason>`` line — never raising.
    Returns how many leaf paths were walked; CI calls it with ``every=1``.
    """
    report = Path(workdir) / "report.json"
    with redirect_stdout(io.StringIO()):
        assert main(TestMalformedFiles.SERVE[:-1] + [
            "--observe", "--json-out", str(report),
        ]) == 0
    valid = json.loads(report.read_text())

    def leaves(node, path=()):
        if isinstance(node, (dict, list)):
            items = sorted(node.items()) if isinstance(node, dict) \
                else enumerate(node)
            for key, child in items:
                yield from leaves(child, (*path, key))
        else:
            yield path

    mutant = Path(workdir) / "mutant.json"
    readers = [
        ("top", lambda f: main(["top", f]), 2),
        ("top --json", lambda f: main(["top", f, "--json"]), 2),
        # the validator's own "violations found" status is 1
        ("validate", lambda f: validate_main([f]), 1),
    ]
    # one representative per leaf path, array positions collapsed
    # (the 12 query records and the windows of a track are one shape)
    paths = list({
        tuple("[]" if isinstance(key, int) else key for key in path): path
        for path in leaves(valid)
    }.values())
    assert len(paths) > 200
    raised = []
    for path in paths[::every]:
        *parents, last = path
        node = valid
        for key in parents:
            node = node[key]
        original = node[last]
        for value in ("x", None, [], {}):
            node[last] = value
            mutant.write_text(json.dumps(valid))
            for name, read, refused in readers:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with redirect_stdout(out), redirect_stderr(err):
                        status = read(str(mutant))
                except Exception as exc:  # what a traceback would be
                    raised.append((name, path, value, repr(exc)))
                    continue
                assert status in (0, refused), (name, path, value)
                assert "Traceback" not in err.getvalue()
                if status == 2:
                    assert err.getvalue().startswith(f"error: {mutant}: ")
                    assert out.getvalue() == ""
        node[last] = original
    assert raised == []
    return len(paths[::every])


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_dims_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--grid", "a,b"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--grid", "0,4"])

    def test_sweep_axis_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "bogus"])

    @pytest.mark.parametrize("argv", [["info", "--p", "0,4"]], ids=["info"])
    def test_a_bad_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit, match="2"):
            main(argv)
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err


class TestInfo:
    def test_info_prints_closed_forms(self, capsys):
        assert main(["info", "--grid", "64,64,64", "--p", "16,16,16",
                     "--q", "32,32,32"]) == 0
        out = capsys.readouterr().out
        assert "T=262144" in out
        assert "n_e=" in out
        assert "degree" in out

    def test_info_invalid_partition_errors(self, capsys):
        assert main(["info", "--grid", "64,64,64", "--p", "48,16,16"]) == 2
        assert "error:" in capsys.readouterr().err


def explain(capsys, *argv):
    """``repro explain --json``: the planner's pick and both model totals."""
    assert main(["explain", *argv, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    totals = {name: a["predicted_total_s"] for name, a in info["algorithms"].items()}
    assert info["chosen"] == min(totals, key=totals.get)
    return info, totals


class TestPlan:
    def test_plan_picks_ij_low_degree(self, capsys):
        info, _ = explain(capsys, "--grid", "64,64,64", "--p", "16,16,16", "--q", "16,16,16")
        assert info["chosen"] == "indexed-join" and info["ne_cs"] < info["crossover_ne_cs"]

    def test_plan_picks_gh_high_degree(self, capsys):
        info, _ = explain(capsys, "--grid", "64,64,64", "--p", "4,4,4", "--q", "32,32,32")
        assert info["chosen"] == "grace-hash"

    def test_plan_nfs_mode(self, capsys):
        info, _ = explain(capsys, "--grid", "32,32,32", "--p", "8,8,8", "--q", "8,8,8", "--nfs")
        assert info["chosen"] == "indexed-join"

    def test_cpu_factor_changes_plan(self, capsys):
        args = ["--grid", "64,64,64", "--p", "16,16,16", "--q", "32,32,32"]
        assert explain(capsys, *args, "--cpu-factor", "0.1")[0]["chosen"] == "grace-hash"
        assert explain(capsys, *args, "--cpu-factor", "10")[0]["chosen"] == "indexed-join"


class TestRun:
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    @pytest.mark.parametrize("command", [
        ["run", "--grid", "16,16", "--p", "4,4", "--q", "4,4"],
        ["explain", "--grid", "16,16", "--p", "4,4", "--q", "4,4"],
        ["sweep", "cpu"],
    ])
    def test_cpu_factor_must_be_positive_and_finite(self, capsys, command, value):
        """Once a NaN factor printed NaN times and exited 0."""
        assert main(command + ["--cpu-factor", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: cpu_factor must be positive and finite" in err

    def test_non_finite_retry_base_is_refused(self, capsys):
        """A NaN retry base once ran every retry without its backoff and
        exited 0."""
        argv = ["run", "--grid", "16,16", "--p", "4,4", "--q", "4,4", "--storage", "2",
                "--compute", "2", "--replication", "2",
                "--faults", "seed=3,transient=0.5,retry_base=nan"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert err.startswith("error: retry_base must be finite and >= 0, got nan")

    @pytest.mark.parametrize("item, named", [
        ("seed=7@2", "fault spec key 'seed' takes no @node in 'seed=7@2'"),
        ("transient=0.1@3", "fault spec key 'transient' takes no @node"),
        ("max_attempts=3@1", "fault spec key 'max_attempts' takes no @node"),
        ("retry_base=0.1@0", "fault spec key 'retry_base' takes no @node"),
        ("storage_crash=1@x", "bad node 'x' in 'storage_crash=1@x'"),
    ], ids=["seed", "transient", "max-attempts", "retry-base", "crash-node"])
    def test_a_misread_fault_item_is_refused(self, capsys, item, named):
        """An ``@node`` on a single-value key was once dropped and the
        serve exited 0; a non-integer node printed only int()'s message."""
        argv = ["serve", "--grid", "16,16", "--p", "4,4", "--q", "2,2", "--storage", "2",
                "--compute", "2", "--faults", item]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert err.startswith(f"error: {named}")

    def test_run_reports_both_algorithms(self, capsys):
        assert main(["run", "--grid", "32,32,32", "--p", "8,8,8",
                     "--q", "8,8,8", "--storage", "2", "--compute", "2"]) == 0
        out = capsys.readouterr().out
        assert "indexed-join" in out and "grace-hash" in out
        assert "simulated winner:" in out


class TestPipelineFlag:
    def test_run_with_pipeline_reports_overlap(self, capsys):
        assert main(["run", "--grid", "32,32,32", "--p", "8,8,8",
                     "--q", "8,8,8", "--storage", "2", "--compute", "2",
                     "--pipeline"]) == 0
        out = capsys.readouterr().out
        assert "indexed-join (pipe)" in out
        assert "transfer overlap:" in out

    def test_no_pipeline_is_default(self, capsys):
        args = build_parser().parse_args(
            ["run", "--grid", "32,32,32", "--p", "8,8,8", "--q", "8,8,8"]
        )
        assert args.pipeline is False
        args = build_parser().parse_args(
            ["run", "--grid", "32,32,32", "--p", "8,8,8", "--q", "8,8,8",
             "--no-pipeline"]
        )
        assert args.pipeline is False

    def test_plan_with_pipeline_lowers_ij_total(self, capsys):
        base = ["--grid", "64,64,64", "--p", "16,16,16", "--q", "16,16,16"]
        sync, sync_totals = explain(capsys, *base)
        pipe, pipe_totals = explain(capsys, *base, "--pipeline")
        assert pipe["pipelined"] and not sync["pipelined"]
        assert pipe_totals["indexed-join"] < sync_totals["indexed-join"]
        assert pipe_totals["grace-hash"] == sync_totals["grace-hash"]


class TestServe:
    SMALL = ["serve", "--grid", "16,16", "--p", "4,4", "--q", "2,2",
             "--storage", "2", "--compute", "2", "--seed", "42"]

    def test_serve_reports_stream(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "policy: fifo" in out
        assert "shared cache:" in out
        assert "digest:" in out
        assert "interactive" in out and "batch" in out

    def test_serve_digest_is_deterministic(self, capsys):
        def digest():
            assert main(self.SMALL) == 0
            out = capsys.readouterr().out
            (line,) = [ln for ln in out.splitlines() if ln.startswith("digest:")]
            return line.split()[1]

        assert digest() == digest()

    def test_serve_sanitized_with_baseline(self, capsys):
        assert main(self.SMALL + ["--functional", "--sanitize",
                                  "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "reversed-tie-break shadow serve passed" in out
        assert "serial cold-cache baseline" in out

    def test_serve_json_out(self, tmp_path, capsys):
        target = tmp_path / "serve.json"
        assert main(self.SMALL + ["--policy", "fair", "--json-out",
                                  str(target)]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["policy"] == "fair"
        assert payload["num_queries"] == len(payload["queries"])
        assert "makespan_s" in payload

    def test_serve_tenant_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({"tenants": [
            {"name": "solo", "rate": 1.0, "num_queries": 3,
             "mix": {"scan": 1.0}},
        ]}))
        assert main(self.SMALL + ["--tenants", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "solo" in out
        assert "queries: 3" in out

    def test_serve_rejects_belady(self, capsys):
        assert main(self.SMALL + ["--cache-policy", "belady"]) == 2
        assert "belady" in capsys.readouterr().err


class TestObservedServe:
    SMALL = TestServe.SMALL

    @pytest.fixture()
    def slo_tenants(self, tmp_path):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({"tenants": [
            {"name": "gold", "rate": 2.0, "num_queries": 6,
             "mix": {"scan": 2.0, "join": 1.0},
             "slo": {"availability": 0.9, "latency": 0.5}},
            {"name": "bulk", "rate": 0.5, "num_queries": 3,
             "process": "bursty", "mix": {"aggregate": 1.0}},
        ]}))
        return str(spec)

    def test_observe_writes_artifacts(self, tmp_path, slo_tenants, capsys):
        report = tmp_path / "report.json"
        oplog = tmp_path / "ops.jsonl"
        assert main(self.SMALL + [
            "--tenants", slo_tenants, "--observe", "--obs-window", "0.5",
            "--json-out", str(report), "--oplog-out", str(oplog),
        ]) == 0
        out = capsys.readouterr().out
        assert "observability:" in out
        payload = json.loads(report.read_text())
        obs = payload["observability"]
        assert obs["timeseries"]["window_s"] == 0.5
        assert "gold" in obs["slo"]
        assert "bulk" not in obs["slo"]  # no slo object in its spec
        lines = oplog.read_text().splitlines()
        assert len(lines) == obs["oplog"]["records"]
        assert json.loads(lines[0])["event"] == "submit"

    def test_observe_does_not_move_the_digest(self, capsys):
        def digest(extra):
            assert main(self.SMALL + extra) == 0
            out = capsys.readouterr().out
            (line,) = [
                ln for ln in out.splitlines() if ln.startswith("digest:")
            ]
            return line.split()[1]

        assert digest([]) == digest(["--observe"])

    def test_observe_with_faulted_sanitized_serve(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(self.SMALL + [
            "--replication", "2", "--faults", "seed=7,storage_crash=0.3",
            "--sanitize", "--observe", "--json-out", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "byte-identical faulted replay passed" in out
        assert "observability" in json.loads(report.read_text())

    def test_oplog_out_requires_observe(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(self.SMALL + [
            "--oplog-out", str(tmp_path / "ops.jsonl"),
            "--json-out", str(report),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --oplog-out needs --observe\n"
        # rejected at the boundary: nothing was served, nothing written
        assert "digest:" not in captured.out
        assert not report.exists()

    @pytest.mark.parametrize("flags", [["--obs-window", "0.25"], ["--no-reuse"]],
                             ids=["obs-window", "no-reuse"])
    def test_observatory_flags_require_observe(self, flags, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(self.SMALL + flags + ["--json-out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flags[0]} needs --observe\n"
        assert "digest:" not in captured.out
        assert not report.exists()


class TestTop:
    def _artifacts(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        oplog = tmp_path / "ops.jsonl"
        assert main(TestServe.SMALL + [
            "--observe", "--json-out", str(report), "--oplog-out", str(oplog),
        ]) == 0
        capsys.readouterr()
        return str(report), str(oplog)

    def test_top_renders_panels(self, tmp_path, capsys):
        report, oplog = self._artifacts(tmp_path, capsys)
        assert main(["top", report, "--oplog", oplog]) == 0
        out = capsys.readouterr().out
        for panel in ("== serve", "== tenants", "== timelines",
                      "== error budget", "== alerts", "== ops log"):
            assert panel in out
        assert "interactive" in out and "batch" in out

    def test_top_json_is_deterministic(self, tmp_path, capsys):
        report, oplog = self._artifacts(tmp_path, capsys)

        def dump():
            assert main(["top", report, "--oplog", oplog, "--json"]) == 0
            return capsys.readouterr().out

        first = dump()
        assert first == dump()
        dash = json.loads(first)
        assert dash["meta"]["observed"] is True
        assert dash["oplog"]["submit"] == dash["meta"]["queries"]

    def test_top_without_observability_degrades(self, tmp_path, capsys):
        report = tmp_path / "plain.json"
        assert main(TestServe.SMALL + ["--json-out", str(report)]) == 0
        capsys.readouterr()
        assert main(["top", str(report)]) == 0
        out = capsys.readouterr().out
        assert "observability: disabled" in out

    def test_top_rejects_non_report(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"hello": 1}))
        assert main(["top", str(bogus)]) == 2
        assert "not a server report" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def served_oplog(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("served")
        report, oplog = out / "report.json", out / "ops.jsonl"
        with redirect_stdout(io.StringIO()):
            assert main(TestServe.SMALL + [
                "--observe", "--json-out", str(report), "--oplog-out", str(oplog),
            ]) == 0
        return str(report), oplog.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("lines, reason", [
        (['[1, 2]\n'], "record 0: not a JSON object"),
        (['{"seq": 0}\n'], "record 0: missing keys ['t', 'event']"),
        (['{"seq": 0, "t": 0.0, "event": "frobnicate"}\n'],
         "record 0: unknown event 'frobnicate'"),
        (['{"seq": 0, "t": 0.0, "event": ["x"]}\n'], "record 0: unknown event ['x']"),
        (['{"seq": 0, "t": 0.0, "event": "submit", "qid": 1, "why": [1]}\n'],
         "record 0: field 'why' is not a scalar (list)"),
        (None, "record 1: seq 2 != expected 1"),
    ], ids=["non-object", "missing-key", "unknown-event", "list-event",
            "non-scalar-field", "seq-gap"])
    def test_top_refuses_a_malformed_oplog(self, served_oplog, lines, reason,
                                           tmp_path, capsys):
        report, valid = served_oplog
        oplog = tmp_path / "ops.jsonl"
        # the seq gap: a served log with its second record cut out
        oplog.write_text("".join(lines or valid[:1] + valid[2:]))
        assert main(["top", report, "--oplog", str(oplog)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {oplog}: {reason}\n"
        assert captured.out == ""

    def test_top_renders_reuse_panel(self, tmp_path, capsys):
        report, _ = self._artifacts(tmp_path, capsys)
        assert main(["top", report]) == 0
        out = capsys.readouterr().out
        assert "== cache reuse" in out
        assert "configured capacity" in out
        # the what-if curve is the report's global one
        assert main(["top", report, "--json"]) == 0
        dash = json.loads(capsys.readouterr().out)
        reuse = json.loads(Path(report).read_text())["observability"]["reuse"]
        assert dash["reuse"]["mrc"] == reuse["mrc"]["global"]

    def test_a_report_with_an_advisor_section_reads_as_one_without(self, tmp_path, capsys):
        """Reports written while the reuse section carried a
        materialization advisor still read: every reader ignores it."""
        report, _ = self._artifacts(tmp_path, capsys)
        payload = json.loads(Path(report).read_text())
        payload["observability"]["reuse"]["advisor"] = {"cost_model": {"link_bw": 1.25e8},
                                                        "candidates": [{"key": "(1,0)"}]}
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload))
        for flags in ([], ["--json"]):
            outputs = []
            for path in (report, str(legacy)):
                assert main(["top", path, *flags]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], flags
        assert validate_main([report, str(legacy)]) == 0

    def test_top_degrades_when_served_with_no_reuse(self, tmp_path, capsys):
        # an observed report from before the reuse observatory existed
        # looks exactly like one served with --no-reuse: the panel must
        # degrade, not crash
        report = tmp_path / "no_reuse.json"
        assert main(TestServe.SMALL + [
            "--observe", "--no-reuse", "--json-out", str(report),
        ]) == 0
        capsys.readouterr()
        assert main(["top", str(report)]) == 0
        out = capsys.readouterr().out
        assert "reuse: disabled for this serve" in out


class TestMalformedFiles:
    """A file argument that is missing or holds the wrong JSON shape is
    rejected with ``error: <path>: <reason>`` and exit 2, not a traceback."""

    SERVE = ["serve", "--grid", "16,16", "--p", "4,4", "--q", "4,4",
             "--storage", "2", "--compute", "2", "--tenants"]

    @pytest.mark.parametrize(
        "argv", [SERVE, ["top"]], ids=["serve-tenants", "top"]
    )
    def test_missing_file(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(argv + [str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: ")
        assert "No such file" in err

    @pytest.mark.parametrize("argv", [["top"], ["top", "--json"]],
                             ids=["top", "top-json"])
    @pytest.mark.parametrize("content, reason", [
        ('{"queries": 3}', "not a server report (no 'queries' list)"),
        ('{"queries": []}', "not a server report (no 'tenants' dict)"),
        (
            '{"queries": [], "tenants": {}, "dispositions": {}, "cache": {},'
            ' "observability": {"timeseries": {"t_end": 1.0, "gauges":'
            ' {"server.queue_depth": {"windows": "oops"}}}}}',
            "gauge 'server.queue_depth': missing or empty windows",
        ),
        (
            '{"queries": [], "tenants": {}, "dispositions": {}, "cache": {},'
            ' "observability": {"timeseries": {"t_end": 1.0, "counters": 5}}}',
            "timeseries 'counters' is not an object",
        ),
        (
            '{"queries": [], "tenants": {}, "dispositions": {}, "cache": {},'
            ' "observability": {"timeseries": {"t_end": 1.0, "gauges":'
            ' {"server.queue_depth": 3}}}}',
            "gauge 'server.queue_depth': not an object",
        ),
    ], ids=["queries-not-a-list", "no-sections", "gauge-windows-not-a-list",
            "counters-not-an-object", "gauge-track-not-an-object"])
    def test_report_wrong_shape(self, argv, content, reason, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(content)
        assert main(argv + [str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {report}: {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["top", "BAD"], ["top", "REPORT", "--oplog", "BAD"], ["drift", "--store", "BAD"],
    ], ids=["top", "top-oplog", "drift"])
    @pytest.mark.parametrize("content", [b"\xff\xfe", b"root:x:0:0:root:/root:/bin/sh\n"],
                             ids=["binary", "text"])
    def test_unreadable_file_is_named(self, argv, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        report = tmp_path / "report.json"
        report.write_text('{"queries": [], "tenants": {}, "dispositions": {}, "cache": {}}')
        paths = {"BAD": str(bad), "REPORT": str(report)}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}:")
        assert captured.out == ""

    def test_every_report_leaf_mutation_is_served_or_refused(self, tmp_path):
        # a fixed eighth of the leaf paths; CI walks all of them
        assert walk_report_leaf_mutations(tmp_path, every=8) > 25

    @pytest.mark.parametrize("content, reason", [
        ("[1, 2, 3]", "tenant #0: not an object"),
        ('[{"rate": 1.0}]', "tenant #0: no 'name' key"),
        ('{"queries": []}', "holds no tenants"),
        ('[{"name": "a", "rate": null, "num_queries": 3}]', "tenant #0: float() argument"),
        ('[{"name": "a", "rate": [1], "num_queries": 3}]', "tenant #0: float() argument"),
        ('[{"name": "a", "mix": 5, "num_queries": 3}]', "tenant #0: mix must be"),
        ('[{"name": "a", "num_queries": 2.5}]', "tenant #0: num_queries must be a whole number"),
        ('[{"name": "a", "num_querys": 5}]', "tenant #0: unknown keys ['num_querys']"),
        ('[{"name": "a", "rate": "fast"}]', "tenant #0: rate must be a number, got 'fast'"),
        ('[{"name": "a", "mix": ["scan"]}]', "tenant #0: mix must be"),
        ('[{"name": "a", "slo": {"availability": 0.9, "latencies": 2.0}}]',
         "tenant #0: unknown slo keys ['latencies']"),
        ('[{"name": ', "not JSON"),
    ], ids=["non-objects", "nameless", "no-tenants-key", "null-rate", "list-rate",
            "scalar-mix", "fractional-count", "misspelt-key", "word-rate",
            "unpaired-mix", "misspelt-slo-key", "unparsable"])
    def test_tenants_wrong_shape(self, content, reason, tmp_path, capsys):
        spec = tmp_path / "tenants.json"
        spec.write_text(content)
        assert main(self.SERVE + [str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {spec}: {reason}")
        # nothing was served: no report, no digest line
        assert captured.out == ""

    VALID_TENANT = {
        "name": "a", "rate": 2.0, "num_queries": 2, "mix": {"scan": 1.0},
        "process": "bursty", "alpha": 1.5, "deadline": 5.0,
        "slo": {"availability": 0.9, "latency": 1.0},
    }

    @pytest.mark.parametrize(
        "value", [None, [], {}, "x", -1, 2.5, True],
        ids=["null", "list", "object", "string", "negative", "fraction", "true"],
    )
    @pytest.mark.parametrize("key", sorted(VALID_TENANT))
    def test_tenant_key_sweep(self, key, value, tmp_path, capsys):
        """Any JSON value under any tenant key is either served or named
        in an exit-2 message — never a traceback, never half of each."""
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps([{**self.VALID_TENANT, key: value}]))
        status = main(self.SERVE + [str(spec)])
        captured = capsys.readouterr()
        if status == 0:
            assert "digest: " in captured.out and captured.err == ""
        else:
            assert status == 2
            assert captured.err.startswith(f"error: {spec}: tenant #0: ")
            assert captured.out == ""

    #: each numeric tenant field, as a path into the tenant object, and
    #: the words the refusal names it by
    NUMERIC_FIELDS = {
        "rate": "rate", "num_queries": "num_queries", "alpha": "alpha",
        "deadline": "deadline", "mix.scan": "mix weight",
        "slo.availability": "slo availability", "slo.latency": "slo latency",
    }

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 0, -1, True, "1"],
        ids=["nan", "inf", "-inf", "zero", "negative", "true", "string"],
    )
    @pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
    def test_tenant_numeric_field_sweep(self, field, value, tmp_path, capsys):
        """NaN, infinities, zero, negatives, booleans and numeric strings
        under every numeric field are refused with exit 2 and a message
        naming the tenant and the field — never served with NaN arrivals,
        a NaN in the report or ``true`` read as 1.  The one valid value is
        a tenant with no queries."""
        tenant = json.loads(json.dumps(self.VALID_TENANT))
        *parents, last = field.split(".")
        node = tenant
        for key in parents:
            node = node[key]
        node[last] = value
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps([tenant]))
        status = main(self.SERVE + [str(spec), "--observe"])
        captured = capsys.readouterr()
        if field == "num_queries" and value == 0:
            assert status == 0 and "digest: " in captured.out
            return
        assert status == 2
        assert captured.err.startswith(f"error: {spec}: tenant #0: ")
        assert self.NUMERIC_FIELDS[field] in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name", [None, 7, ["a"], {"a": 1}, True], ids=["null", "number", "list", "object", "true"]
    )
    def test_tenant_name_must_be_a_string(self, name, tmp_path, capsys):
        """A name that is not a JSON string was once served under Python's
        ``str()`` of it: a tenant called ``None``, ``7`` or ``['a']``."""
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps([{"name": name, "rate": 1.0, "num_queries": 2}]))
        assert main(self.SERVE + [str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {spec}: tenant #0: name must be a non-empty string, got {name!r}"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("slo", [[], 0, False, ""], ids=["list", "zero", "false", "empty"])
    def test_tenant_slo_must_be_an_object_or_absent(self, slo, tmp_path, capsys):
        """A falsy ``slo`` that is not ``null`` is refused, not read as
        "no SLO"."""
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps([{**self.VALID_TENANT, "slo": slo}]))
        assert main(self.SERVE + [str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {spec}: tenant #0: tenant slo must be an object")
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--deadline", "nan"], "tenant 'interactive': deadline must be positive and finite"),
        (["--deadline=-inf"], "tenant 'interactive': deadline must be positive and finite"),
        (["--observe", "--obs-window", "nan"], "observability window must be positive"),
        (["--observe", "--obs-window", "inf"], "observability window must be positive"),
    ], ids=["deadline-nan", "deadline-neg-inf", "obs-window-nan", "obs-window-inf"])
    def test_non_finite_serve_flags(self, flags, message, capsys):
        assert main(self.SERVE[:-1] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("window", ["1e-300", "1e-6"])
    def test_an_observed_serve_keeps_at_most_max_windows(self, window, capsys):
        """A window of 1e-300 s once crashed the serve with an
        ``OverflowError`` traceback, and one of 1e-6 s ran for minutes."""
        argv = ["serve", "--grid", "8,8", "--p", "2,2", "--q", "2,2", "--storage", "2",
                "--compute", "2", "--seed", "7", "--observe", "--obs-window", window]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert captured.err.startswith(f"error: window width {float(window)} puts time ")
        assert "100000-window cap" in captured.err

    @pytest.mark.parametrize("argv", [
        ["top", "r.json", "--width", "0"], ["top", "r.json", "--width", "-3"],
        ["trace", "--top", "-2"],
    ], ids=["top-width-zero", "top-width-negative", "trace-top"])
    def test_count_flags_must_be_positive(self, argv, capsys):
        """A count of zero or less is refused before any work, in one
        error line."""
        with pytest.raises(SystemExit, match="2"):
            main(argv)
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert f"must be positive: '{argv[-1]}'" in err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_drift_threshold_must_be_finite_and_non_negative(self, threshold, capsys):
        """``nan`` and ``inf`` once flagged nothing, so ``--check`` passed
        vacuously, and ``-1`` flagged every term."""
        with pytest.raises(SystemExit, match="2"):
            main(["drift", "--store", "unread.jsonl", "--check", "--threshold", threshold])
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert f"must be finite and >= 0: '{threshold}'" in err

    @pytest.mark.parametrize("flags, blocked", [
        (["--json-out"], "under-a-file"),
        (["--observe", "--oplog-out"], "a-directory"),
    ], ids=["json-out", "oplog-out"])
    def test_unwritable_serve_output(self, flags, blocked, tmp_path, capsys):
        """An output that cannot be opened is refused before the stream
        is served, not after it (when there was nowhere left to write)."""
        (tmp_path / "file").write_text("")
        out = {"under-a-file": tmp_path / "file" / "x.json",
               "a-directory": tmp_path}[blocked]
        assert main(self.SERVE[:-1] + flags + [str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, opened", [
        (["trace", *SERVE[1:-1], "--out"], "t.ij.json"),
        (["run", *SERVE[1:-1], "--trace-out"], "t.ij.json"),
        (["run", *SERVE[1:-1], "--analyze", "--drift-store", "none",
          "--analyze-json"], "t.json"),
        (["run", *SERVE[1:-1], "--analyze", "--drift-store"], "t.json"),
        (["sweep", "nfs", "--trace-out"], "t.p0.ij.json"),
    ], ids=["trace-out", "run-trace-out", "analyze-json", "drift-store",
            "sweep-trace-out"])
    def test_unwritable_command_output(self, argv, opened, tmp_path, capsys,
                                       monkeypatch):
        """Like serve's: every output is opened before anything is
        simulated, so a path that cannot be written costs no run and
        prints nothing but the error.  (A sweep's file names depend on its
        point count; its first point's files stand for the directory.)"""
        import repro.cli as cli

        def simulate(*args, **kwargs):
            raise AssertionError("simulated before its outputs were opened")

        monkeypatch.setattr(cli, "run_point", simulate)
        monkeypatch.setitem(cli._SWEEPS, "nfs", (simulate, *cli._SWEEPS["nfs"][1:]))
        (tmp_path / "file").write_text("")
        assert main(argv + [str(tmp_path / "file" / "t.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path / 'file' / opened}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_a_closed_stdout_is_an_error_naming_no_file(self, monkeypatch, capsys):
        """``repro trace ... | head -1``: the pipe closes under a print."""
        import errno
        import sys

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["info"]) == 2
        assert capsys.readouterr().err == "error: Broken pipe\n"

    def test_serve_outputs_create_their_directories(self, tmp_path, capsys):
        report = tmp_path / "new" / "dir" / "report.json"
        oplog = tmp_path / "other" / "ops.jsonl"
        assert main(self.SERVE[:-1] + [
            "--observe", "--json-out", str(report), "--oplog-out", str(oplog),
        ]) == 0
        assert json.loads(report.read_text())["num_queries"] == 12
        assert oplog.read_text().count("\n") > 12

    @pytest.mark.parametrize("line", [
        "[1, 2, 3]", '"text"', '{"fingerprint": "f", "algorithm": "ij", '
        '"term": "Transfer", "predicted_s": null, "observed_s": 1.0}',
    ], ids=["array", "string", "null-term"])
    def test_drift_store_wrong_shape(self, line, tmp_path, capsys):
        store = tmp_path / "drift.jsonl"
        store.write_text(line + "\n")
        assert main(["drift", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {store}:1: bad drift record")


class TestUnreadFlagsRefused:
    """A subcommand registers exactly the flags its handler reads: a flag
    nothing would look at is argparse's exit 2 before anything runs, not
    a run that silently ignored it (a fault sweep that ran fault-free)."""

    SMALL = ["--grid", "16,16", "--p", "4,4", "--q", "4,4",
             "--storage", "2", "--compute", "2"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "nfs", "--faults", "this is not a spec"],
        ["sweep", "nfs", "--replication", "7"],
        ["sweep", "nfs", "--calibrated", "drift"],
        ["sweep", "nfs", "--drift-store", "/nonexistent/x"],
        ["sweep", "nfs", "--nfs"],
        ["explain", *SMALL, "--faults", "not a spec"],
        ["explain", *SMALL, "--replication", "9"],
        ["explain", *SMALL, "--sanitize"],
        ["explain", *SMALL, "--trace-out", "/nonexistent/dir/x.json"],
        ["trace", *SMALL, "--calibrated", "drift"],
        ["trace", *SMALL, "--drift-store", "/nonexistent/x"],
        ["trace", *SMALL, "--trace-out", "/nonexistent/y"],
        # no handler reads --calibrated or serve's --drift-store, and there is
        # no `calibrate` command
        ["explain", *SMALL, "--calibrated"],
        ["run", *SMALL, "--calibrated", "drift"],
        ["serve", *SMALL, "--drift-store", "x"],
        ["calibrate", "--tuples", "5000"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2] if argv[-2].startswith('--') else argv[-1]}")
    def test_refused_before_anything_runs(self, argv, capsys, tmp_path, monkeypatch):
        self.refused(argv, capsys, tmp_path, monkeypatch)

    @pytest.mark.parametrize("axis,flag", [
        ("nfs", ["--storage", "2"]),
        ("nfs", ["--compute", "2"]),
        ("nfs", ["--cpu-factor", "2"]),
        ("nfs", ["--calibrated"]),
        ("compute-nodes", ["--compute", "2"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_sweep_axis_takes_only_what_its_figure_reads(
        self, axis, flag, capsys, tmp_path, monkeypatch
    ):
        """Figure 9 fixes its own deployment and Figure 5 sweeps ``n_j``
        itself: these ran the default sweep, identical stdout, exit 0."""
        self.refused(["sweep", axis, *flag], capsys, tmp_path, monkeypatch)

    @staticmethod
    def refused(argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where an accepted `trace` would write
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("unrecognized arguments" in captured.err
                or "invalid choice: 'calibrate'" in captured.err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["explain", "--nfs", "--cpu-factor", "2", "--pipeline", "--json"],
        ["run", "--nfs", "--cpu-factor", "2", "--drift-store", "x",
         "--pipeline", "--faults", "seed=1", "--replication", "2",
         "--sanitize", "--trace-out", "x"],
        ["sweep", "cpu", "--cpu-factor", "2", "--pipeline", "--sanitize",
         "--trace-out", "x"],
        ["trace", "--nfs", "--cpu-factor", "2", "--pipeline",
         "--faults", "seed=1", "--replication", "2", "--sanitize"],
        ["serve", "--cpu-factor", "2"],
    ], ids=lambda argv: argv[0])
    def test_every_flag_a_handler_reads_still_parses(self, argv):
        args = build_parser().parse_args(argv + ["--storage", "3", "--compute", "4"])
        assert (args.storage, args.compute, args.cpu_factor) == (3, 4, 2.0)



#: the tables of bad input, each of whose rows exits 2
REFUSAL_TABLES = (
    TestParsing.test_a_bad_value_exits_2, TestRun.test_cpu_factor_must_be_positive_and_finite,
    TestMalformedFiles.test_missing_file, TestMalformedFiles.test_report_wrong_shape,
    TestMalformedFiles.test_unreadable_file_is_named,
    TestMalformedFiles.test_count_flags_must_be_positive,
    TestMalformedFiles.test_unwritable_command_output,
    TestUnreadFlagsRefused.test_refused_before_anything_runs,
)

#: commands the parser no longer registers, driven only to show that
#: they are refused
REMOVED_COMMANDS = {"calibrate"}


def argv_rows(test):
    """The command lines a parametrized test drives: each value of its
    ``argv`` or ``command`` parameter (the first of a tuple)."""
    for mark in getattr(test, "pytestmark", ()):
        if mark.name == "parametrize" and mark.args[0].split(",")[0] in ("argv", "command"):
            yield from (v[0] if isinstance(v, tuple) else v for v in mark.args[1])


def test_the_refusal_tables_follow_the_command_set():
    """Every command the parser registers has a bad-input row that exits
    2, and no row in this file drives a command it no longer registers,
    except a removed one's refusal."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert REMOVED_COMMANDS.isdisjoint(sub.choices)
    tests = [t for g in list(globals().values())
             for t in (vars(g).values() if isinstance(g, type) else [g])]
    known = set(sub.choices) | REMOVED_COMMANDS
    assert {row[0] for test in tests for row in argv_rows(test)} <= known
    assert {row[0] for test in REFUSAL_TABLES for row in argv_rows(test)} == known
