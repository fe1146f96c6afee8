"""Diagnostics and suppression handling for ``simlint``.

A :class:`Diagnostic` pins one rule violation to a ``path:line:col``
location; :func:`suppressions` extracts the per-line suppression table a
file declares through ``# simlint: disable=RULE[,RULE...]`` trailing
comments.  Suppressions are deliberately line-granular and rule-explicit:
a blanket "disable everything here" switch would defeat the point of a
linter, which is that every exception is visible and
reviewable at the line that needs it.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List

__all__ = ["Diagnostic", "suppressions", "SUPPRESS_RE"]

#: matches a ``simlint:`` comment directive naming one rule or a
#: comma-separated list (``disable=`` then ``D001`` or ``D001,P002``)
SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)")


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


def suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number → rule ids suppressed on that line.

    Comments are located with :mod:`tokenize` so a ``# simlint:`` sequence
    inside a string literal is never mistaken for a directive.  A file
    that fails to tokenize (the linter reports its syntax error
    separately) falls back to a line-by-line regex scan, which can only
    over-suppress within already-broken files.
    """
    table: Dict[int, FrozenSet[str]] = {}

    def record(line: int, spec: str) -> None:
        rules = frozenset(r.strip() for r in spec.split(","))
        table[line] = table.get(line, frozenset()) | rules

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = SUPPRESS_RE.search(text)
            if m:
                record(lineno, m.group(1))
        return table
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = SUPPRESS_RE.search(tok.string)
        if m:
            record(tok.start[0], m.group(1))
    return table


def filter_suppressed(
    diags: List[Diagnostic], table: Dict[int, FrozenSet[str]]
) -> List[Diagnostic]:
    """Drop diagnostics whose (line, rule) is suppressed."""
    return [d for d in diags if d.rule not in table.get(d.line, frozenset())]
