"""Linter front-end tests: suppression directives, the module entry point,
and the acceptance scenario — the mutation the kept rule exists for must be
named with its rule id and line number."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import protocol_mutations as pm
from repro.analysis import lint_source

REPO = Path(__file__).resolve().parents[2]


def run_linter(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


#: a P002 violation on line 5, column 9
VIOLATION = (
    "def worker(engine):\n"
    "    try:\n"
    "        yield engine.timeout(1.0)\n"
    "    except Interrupt:\n"
    "        yield engine.timeout(0.5)"
)


# -- suppression ---------------------------------------------------------------------


def test_disable_comment_suppresses_named_rule():
    assert [d.rule for d in lint_source(VIOLATION + "\n", "x.py")] == ["P002"]
    assert lint_source(VIOLATION + "  # simlint: disable=P002\n", "x.py") == []


def test_disable_comment_is_rule_specific():
    source = VIOLATION + "  # simlint: disable=E999\n"
    diags = lint_source(source, "x.py")
    assert [d.rule for d in diags] == ["P002"]


def test_multi_rule_disable_suppresses_each_listed_rule():
    assert lint_source(VIOLATION + "  # simlint: disable=E999,P002\n", "x.py") == []
    assert lint_source(VIOLATION + "  # simlint: disable=P002, E999\n", "x.py") == []


def test_disable_inside_string_literal_is_ignored():
    source = VIOLATION.replace("engine.timeout(0.5)", '"# simlint: disable=P002"') + "\n"
    diags = lint_source(source, "x.py")
    assert [d.rule for d in diags] == ["P002"]


# -- module entry point --------------------------------------------------------------


@pytest.fixture(scope="session")
def tree_lint():
    """The one whole-tree pass of the session: ``src`` and ``tests``
    together, JSON diagnostics, then the zero-suppression check."""
    return run_linter("--format", "json", "--no-suppressions", "src", "tests")


def test_src_tree_is_clean(tree_lint):
    assert tree_lint.returncode == 0, tree_lint.stdout + tree_lint.stderr
    # nothing but the empty diagnostic list: no violation, no suppression
    assert json.loads(tree_lint.stdout) == []
    assert tree_lint.stderr == ""


def test_src_and_tests_are_clean(tree_lint):
    assert tree_lint.returncode == 0, tree_lint.stdout + tree_lint.stderr


def test_list_rules_prints_catalogue():
    proc = run_linter("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    # the rules the mutation matrix kept (DESIGN.md §7.1)
    assert listed == ["P002"]


def test_explain_shows_bad_and_good():
    proc = run_linter("--explain", "P002")
    assert proc.returncode == 0
    assert "Bad::" in proc.stdout
    assert "Good::" in proc.stdout


def test_missing_path_is_a_usage_error():
    proc = run_linter("no/such/dir")
    assert proc.returncode == 2
    assert "no such file or directory" in proc.stderr


def test_unknown_select_is_a_usage_error():
    proc = run_linter("--select", "Z999", "src")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_non_utf8_file_is_a_usage_error_naming_it(tmp_path):
    target = tmp_path / "bad.py"
    target.write_bytes(b"\xff\xfe")
    proc = run_linter(str(target))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"simlint: error: {target}: not UTF-8")


# -- acceptance: the cell only P002 catches is found and located ----------------------


def test_seeded_yield_in_interrupt_is_named_with_line(tmp_path):
    """The mutation matrix's P002 cell, which no runtime gate catches."""
    cell = pm.CELLS_BY_NAME["P002/ij-driver/yield-in-interrupt"]
    original = (REPO / "src" / "repro" / cell.file).read_text(encoding="utf-8")
    seeded = pm.mutate(original, cell)
    target = tmp_path / "repro" / cell.file
    target.parent.mkdir(parents=True)
    target.write_text(seeded, encoding="utf-8")
    lineno = seeded.splitlines().index("                yield cluster.engine.timeout(0)") + 1

    proc = run_linter(str(target))
    assert proc.returncode == 1
    assert f"{target}:{lineno}:17: P002" in proc.stdout
    assert "1 violation found" in proc.stderr


# -- output formats ------------------------------------------------------------------


def bad_file(tmp_path):
    target = tmp_path / "repro" / "probe.py"
    target.parent.mkdir()
    target.write_text(VIOLATION + "\n", encoding="utf-8")
    return target


def test_json_format_is_machine_readable(tmp_path):
    target = bad_file(tmp_path)
    proc = run_linter("--format", "json", str(target))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert [d["rule"] for d in report] == ["P002"]
    assert report[0]["path"] == str(target)
    assert report[0]["line"] == 5
    assert "except-Interrupt" in report[0]["message"]


def test_json_format_clean_tree_is_empty_list(tree_lint):
    assert tree_lint.returncode == 0
    assert json.loads(tree_lint.stdout) == []


def test_github_format_emits_error_annotations(tmp_path):
    target = bad_file(tmp_path)
    proc = run_linter("--format", "github", str(target))
    assert proc.returncode == 1
    line = proc.stdout.splitlines()[0]
    assert line.startswith(f"::error file={target},line=5,col=")
    assert "title=simlint P002" in line


# -- the zero-suppression policy -----------------------------------------------------


def test_no_suppressions_fails_on_any_directive(tmp_path):
    target = tmp_path / "repro" / "quiet.py"
    target.parent.mkdir()
    target.write_text(VIOLATION + "  # simlint: disable=P002\n", encoding="utf-8")
    proc = run_linter("--no-suppressions", str(target))
    assert proc.returncode == 1
    assert "suppression of P002" in proc.stdout
    assert "zero-suppression policy" in proc.stderr


def test_no_suppressions_passes_on_directive_free_tree(tmp_path):
    target = tmp_path / "repro" / "ok.py"
    target.parent.mkdir()
    target.write_text("VALUE = 1\n", encoding="utf-8")
    proc = run_linter("--no-suppressions", str(target))
    assert proc.returncode == 0


def test_src_tree_has_zero_suppressions(tree_lint):
    # the enforced policy: no `# simlint: disable=` anywhere under src/
    assert tree_lint.returncode == 0, tree_lint.stdout + tree_lint.stderr
    assert "suppression" not in tree_lint.stdout + tree_lint.stderr
