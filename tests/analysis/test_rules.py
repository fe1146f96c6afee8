"""Fixture-driven rule tests.

Every fixture under ``fixtures/`` carries ``# expect: RULE[, RULE]``
trailing markers on its violating lines; the harness asserts simlint's
diagnostics for the file match the markers *exactly* — no missing
violations, no extras, and correct anchor lines.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)")


def expected_violations(source):
    """Parse ``# expect:`` markers into a set of (rule_id, line) pairs."""
    out = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _EXPECT_RE.search(text)
        if m:
            for rule in m.group(1).split(","):
                out.add((rule.strip(), lineno))
    return out


@pytest.mark.parametrize(
    "fixture", sorted(FIXTURES.glob("*.py")), ids=lambda p: p.stem
)
def test_fixture_matches_markers(fixture):
    source = fixture.read_text(encoding="utf-8")
    expected = expected_violations(source)
    diags = lint_source(source, str(fixture), is_sim_source=True)
    actual = {(d.rule, d.line) for d in diags}
    assert actual == expected, (
        f"diagnostics disagree with # expect markers in {fixture.name}:\n"
        f"  unexpected: {sorted(actual - expected)}\n"
        f"  missing:    {sorted(expected - actual)}"
    )


def test_every_rule_has_a_violating_fixture():
    covered = set()
    for fixture in FIXTURES.glob("*.py"):
        source = fixture.read_text(encoding="utf-8")
        covered |= {rule for rule, _ in expected_violations(source)}
    assert set(RULES) <= covered, f"rules without fixtures: {set(RULES) - covered}"


def test_src_scoped_rules_skip_test_code():
    # rules check simulation source only: the engine test-suite deliberately
    # yields inside interrupt handlers to pin behaviour, so outside the
    # repro package the rule must not fire.
    source = (FIXTURES / "p002_yield_in_interrupt.py").read_text(encoding="utf-8")
    diags = lint_source(source, "somewhere/test_events.py", is_sim_source=False)
    assert not any(d.rule == "P002" for d in diags)


def test_select_restricts_rule_set():
    source = (FIXTURES / "p002_yield_in_interrupt.py").read_text(encoding="utf-8")
    diags = lint_source(source, "p002.py", is_sim_source=True, select=["P002"])
    assert diags and all(d.rule == "P002" for d in diags)


def test_syntax_error_reported_as_e999():
    diags = lint_source("def broken(:\n", "broken.py")
    assert len(diags) == 1
    assert diags[0].rule == "E999"
    assert diags[0].line == 1
