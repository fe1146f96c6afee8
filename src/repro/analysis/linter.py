"""File discovery, rule execution and the ``simlint`` command line.

``python -m repro.analysis [paths...]`` (or ``repro lint``) walks the
given files/directories, runs every registered rule against each Python
file, and prints one ``path:line:col: RULE message`` diagnostic per
violation.  Exit status is 0 when the tree is clean, 1 otherwise — the
CI lint job is exactly this invocation over ``src/`` and ``tests/``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

# importing the rule modules populates the registry
import repro.analysis.determinism  # noqa: F401
import repro.analysis.protocol  # noqa: F401
from repro.analysis.diagnostics import Diagnostic, filter_suppressed, suppressions
from repro.analysis.rules import RULES, FileContext, iter_rules

__all__ = ["lint_source", "lint_paths", "iter_python_files", "main"]

#: directory names never descended into; ``fixtures`` holds deliberately
#: violating inputs for the linter's own tests
_SKIP_DIRS = {"__pycache__", ".git", "fixtures", ".venv", "build", "dist"}


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, depth-first, deterministic order."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        stack = [path]
        while stack:
            d = stack.pop()
            for child in sorted(d.iterdir(), reverse=True):
                if child.is_dir():
                    if child.name not in _SKIP_DIRS:
                        stack.append(child)
                elif child.suffix == ".py":
                    yield child

    # reverse=True + stack pop → lexicographic emission order


def _is_sim_source(path: Path) -> bool:
    parts = path.resolve().parts
    return "repro" in parts and "tests" not in parts


def lint_source(
    source: str,
    path: str,
    *,
    is_sim_source: bool = True,
    select: Optional[List[str]] = None,
) -> List[Diagnostic]:
    """Run the (selected) rules over one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="E999",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = FileContext(
        path=path, source=source, tree=tree, is_sim_source=is_sim_source
    )
    diags: List[Diagnostic] = []
    for rule in iter_rules(select):
        if rule.applies(ctx):
            diags.extend(rule.check(ctx))
    diags = filter_suppressed(diags, suppressions(source))
    diags.sort(key=lambda d: (d.line, d.col, d.rule))
    return diags


def lint_paths(
    paths: Sequence[str], *, select: Optional[List[str]] = None
) -> List[Diagnostic]:
    """Lint every Python file under ``paths``."""
    out: List[Diagnostic] = []
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        out.extend(
            lint_source(
                source,
                str(file),
                is_sim_source=_is_sim_source(file),
                select=select,
            )
        )
    return out


def find_suppressions(paths: Sequence[str]) -> List[tuple]:
    """Every ``# simlint: disable=`` directive under ``paths``.

    Returns ``(path, line, rules)`` triples in deterministic file order —
    the mechanical teeth of the zero-suppression policy: CI runs with
    ``--no-suppressions`` and fails on any directive, so a suppression
    cannot land without the policy itself being changed.
    """
    out: List[tuple] = []
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        for line, rules in sorted(suppressions(source).items()):
            out.append((str(file), line, tuple(sorted(rules))))
    return out


def _format_json(diags: List[Diagnostic]) -> str:
    import json

    return json.dumps(
        [
            {
                "rule": d.rule,
                "path": d.path,
                "line": d.line,
                "col": d.col,
                "message": d.message,
            }
            for d in diags
        ],
        indent=2,
    )


def _format_github(d: Diagnostic) -> str:
    # GitHub annotation: newlines in the message would break the command
    message = d.message.replace("\n", " ")
    return (
        f"::error file={d.path},line={d.line},col={d.col},"
        f"title=simlint {d.rule}::{message}"
    )


def _list_rules() -> str:
    width = max(len(r.id) for r in RULES.values())
    lines = [
        f"{rule.id:<{width}}  [{rule.scope:>3}]  {rule.title}"
        for rule in RULES.values()
    ]
    return "\n".join(lines)


def _explain(rule_id: str) -> str:
    if rule_id not in RULES:
        raise SystemExit(f"unknown rule {rule_id!r}; try --list-rules")
    doc = type(RULES[rule_id]).__doc__ or "(undocumented)"
    return doc.strip()


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description=(
            "Determinism and engine-protocol linter for the simulation "
            "codebase. Exit status 1 when any diagnostic is emitted."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--explain", metavar="RULE", help="print one rule's full documentation and exit"
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help=(
            "diagnostic output format: text (default), json (machine-"
            "readable report), github (::error workflow annotations)"
        ),
    )
    parser.add_argument(
        "--no-suppressions",
        action="store_true",
        help=(
            "also fail on any `# simlint: disable=` directive under the "
            "linted paths (the zero-suppression policy, enforced "
            "mechanically in CI)"
        ),
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        print(_list_rules())
        return 0
    if args.explain:
        print(_explain(args.explain))
        return 0

    select = [r.strip() for r in args.select.split(",")] if args.select else None
    try:
        diags = lint_paths(args.paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_format_json(diags))
    else:
        for d in diags:
            print(_format_github(d) if args.format == "github" else d.format())
    failed = bool(diags)
    if diags:
        n = len(diags)
        print(f"simlint: {n} violation{'s' if n != 1 else ''} found", file=sys.stderr)
    if args.no_suppressions:
        try:
            found = find_suppressions(args.paths)
        except FileNotFoundError as exc:
            print(f"simlint: error: {exc}", file=sys.stderr)
            return 2
        for path, line, rules in found:
            joined = ",".join(rules)
            if args.format == "github":
                print(
                    f"::error file={path},line={line},title=simlint "
                    f"suppression::suppression of {joined} violates the "
                    "zero-suppression policy"
                )
            else:
                print(f"{path}:{line}: suppression of {joined} (policy: none allowed)")
        if found:
            n = len(found)
            print(
                f"simlint: {n} suppression{'s' if n != 1 else ''} found "
                "(zero-suppression policy)",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0
