"""Fixture-driven tests of the P002 walk that tier-1 runs over the
``repro`` package (``tests/test_determinism.py``).

Every fixture under ``fixtures/`` carries ``# expect: P002`` trailing
markers on its violating lines; the walk must name *exactly* those lines —
no missing violation, no extra one.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from tests.test_determinism import interrupt_handler_yields

FIXTURES = Path(__file__).parent / "fixtures"
ENGINE_TESTS = Path(__file__).resolve().parents[1] / "cluster" / "test_events.py"

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]\d{3})")


def expected_violations(source):
    """Parse ``# expect:`` markers into a set of (rule_id, line) pairs."""
    out = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _EXPECT_RE.search(text)
        if m:
            out.add((m.group(1), lineno))
    return out


@pytest.mark.parametrize(
    "fixture", sorted(FIXTURES.glob("*.py")), ids=lambda p: p.stem
)
def test_fixture_matches_markers(fixture):
    source = fixture.read_text(encoding="utf-8")
    expected = expected_violations(source)
    actual = {("P002", line) for line in interrupt_handler_yields(ast.parse(source))}
    assert actual == expected, (
        f"the walk disagrees with # expect markers in {fixture.name}:\n"
        f"  unexpected: {sorted(actual - expected)}\n"
        f"  missing:    {sorted(expected - actual)}"
    )


def test_every_rule_has_a_violating_fixture():
    covered = set()
    for fixture in FIXTURES.glob("*.py"):
        covered |= {rule for rule, _ in expected_violations(fixture.read_text(encoding="utf-8"))}
    # P002 is the one syntactic rule left (DESIGN.md §7.1)
    assert covered == {"P002"}


def test_src_scoped_rules_skip_test_code():
    # the engine test-suite deliberately yields inside interrupt handlers to
    # pin behaviour, so the tier-1 check walks the repro package only
    assert interrupt_handler_yields(ast.parse(ENGINE_TESTS.read_bytes()))
    assert not ENGINE_TESTS.is_relative_to(Path(repro.__file__).resolve().parent)
