"""Rule framework and shared AST helpers for ``simlint``.

A rule is a class with an ``id`` (``D...`` determinism, ``P...`` engine
protocol, ``C...`` convention), a human ``title``, a ``scope`` and a
``check`` method producing :class:`~repro.analysis.diagnostics.Diagnostic`
objects for one parsed file.  The class docstring *is* the rule's
documentation — it must state the hazard and show a bad and a good
example; ``python -m repro.analysis --explain RULE`` prints it verbatim.

Scopes
------

``"src"``
    The rule applies only to simulation source (files under the
    ``repro`` package).  Engine-protocol rules use this: the test suite
    deliberately exercises the discouraged patterns (leaked events,
    yields inside interrupt handlers) to pin the engine's behaviour.
``"all"``
    The rule applies to every linted file, tests included — determinism
    hazards in tests make tests flaky, so they are never exempt.

Adding a rule
-------------

1. Subclass :class:`Rule` in :mod:`repro.analysis.determinism` (D rules)
   or :mod:`repro.analysis.protocol` (P/C rules), decorate with
   :func:`register`, and write the docstring with a ``Bad``/``Good``
   pair.
2. Add a fixture under ``tests/analysis/fixtures/`` whose violating
   lines carry ``# expect: RULE`` markers; the fixture harness asserts
   the diagnostics match the markers exactly.
3. Run ``python -m repro.analysis src/ tests/`` — a new rule must start
   green on the tree (fix what it finds; do not ship suppressions).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Type

from repro.analysis.diagnostics import Diagnostic

__all__ = [
    "FileContext",
    "Rule",
    "RULES",
    "register",
    "dotted_name",
    "is_set_expr",
    "iter_rules",
]


@dataclass
class FileContext:
    """Everything a rule needs to know about one file under analysis."""

    path: str
    source: str
    tree: ast.AST
    #: whether the file is simulation source (under the ``repro`` package)
    #: as opposed to a test/benchmark/script — see rule scopes
    is_sim_source: bool

    def diag(self, rule: "Rule", node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            rule=rule.id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class for simlint rules; subclasses are registered singletons."""

    id: str = ""
    title: str = ""
    scope: str = "src"  # "src" | "all"

    def applies(self, ctx: FileContext) -> bool:
        return self.scope == "all" or ctx.is_sim_source

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError


#: rule id → singleton instance, in registration (catalogue) order
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


def iter_rules(select: Optional[List[str]] = None) -> List[Rule]:
    """The rule set to run, preserving catalogue order."""
    if select is None:
        return list(RULES.values())
    unknown = [r for r in select if r not in RULES]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [RULES[r] for r in select]


# -- shared AST helpers --------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` syntactically produces a ``set`` (unordered).

    Covers literals, comprehensions, ``set()``/``frozenset()`` calls and
    the set-algebra operators combining any of those.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return is_set_expr(node.left) or is_set_expr(node.right)
    return False


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested function defs.

    ``node`` itself is yielded first.  Lambdas are *not* treated as scope
    boundaries: a lambda closing over an event and triggering it later is
    the engine's own callback idiom, so their bodies count as uses.
    """
    yield node
    stack = [node]
    while stack:
        current = stack.pop()
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child
            stack.append(child)
