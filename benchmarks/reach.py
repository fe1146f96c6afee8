"""Reachability census: which committed artifact reaches each function
under ``src/repro``?

Tier-1 tests are not artifacts: a function that only they call is what
the census looks for.  The artifacts (:func:`artifacts`) are

* the six ``bench`` workloads, each set up, run and verified in-process
  (``reach.py workload NAME``);
* ``pytest benchmarks``, with ``--benchmark-disable`` because
  pytest-benchmark's timer hides the calls it times from the profiler;
* every ``fence.py`` slice and every ``examples/*.py``;
* every step of ``.github/workflows/ci.yml`` that runs ``python -m
  repro`` or a ``benchmarks/*.py`` script, as its whole ``run:`` script,
  except the mutation matrix (its suites are tier-1 test files) and this
  census (:data:`NOT_ARTIFACTS`).

Each runs under ``bash -e`` in a scratch copy of the tree whose ``src/``
also holds ``reach_hook/sitecustomize.py``.  Every Python process that
starts with that ``src/`` on ``PYTHONPATH`` — the artifact, a fence
cell, a ``subprocess`` child — records each code object it enters and
reports those under ``src/repro`` when it exits.

``results/REACH.json`` holds, per function (``path:Qualname``, the path
under ``src/repro``), the artifacts that reach it, and under ``kept`` a
reason for each function that none reaches but that stays, led by its
kind: ``interface`` (a base-class declaration), ``input`` (the only path
for a supported input no artifact gives), ``refusal``, ``oracle``,
``data model`` (a method Python calls implicitly), ``paper``, or ``test
API`` (only tier-1 tests call it: the next deletions).  Every other
unreached function is deleted with its tests.

::

    python benchmarks/reach.py census   # run every artifact, rewrite REACH.json
    python benchmarks/reach.py check    # run every artifact, compare with it

Both exit 1 naming each unreached function without a ``kept`` entry,
each ``kept`` entry whose function is reached or gone, and each artifact
that failed.  ``census`` keeps the ``kept`` entries it finds.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
HOOK = os.path.join(HERE, "reach_hook", "sitecustomize.py")
RESULTS = os.path.join(HERE, "results", "REACH.json")
WORKFLOW = os.path.join(REPO, ".github", "workflows", "ci.yml")
PACKAGE = "repro"
SEED = 7

#: a CI step is an artifact when its script runs one of these
CI_COMMAND = re.compile(r"\bpython3? (?:-m repro\b|benchmarks/\w+\.py)")

#: CI scripts that are not artifacts: the mutation matrix runs tier-1
#: test files, and the census does not count itself
NOT_ARTIFACTS = ("benchmarks/protocol_mutations.py", "benchmarks/reach.py")

#: not copied into the census's tree
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"
)

#: (path under the package, first line of the code object, name)
Site = Tuple[str, int, str]


def functions(package_dir: str) -> Dict[str, Site]:
    """``path:Qualname`` → site of every ``def`` under ``package_dir``.

    The first line is a decorated function's first decorator, as in its
    code object; a name defined twice in one scope (a property and its
    setter) gets ``#2``, ``#3``, ... after the first."""
    out: Dict[str, Site] = {}
    for path in sorted(Path(package_dir).rglob("*.py")):
        rel = path.relative_to(package_dir).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    fid, n = f"{rel}:{qualname}", 1
                    while fid in out:
                        n += 1
                        fid = f"{rel}:{qualname}#{n}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[fid] = (rel, first, child.name)
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def ci_steps(workflow: str = WORKFLOW) -> List[Tuple[str, str]]:
    """``(step name, script)`` of every step with a ``run:`` key, in file
    order.  Just enough YAML for this workflow: ``run: command``, ``run:
    |`` (lines kept) and ``run: >-`` (lines folded into one)."""
    lines = Path(workflow).read_text(encoding="utf-8").splitlines()
    steps, name, i = [], None, 0
    while i < len(lines):
        line, i = lines[i], i + 1
        step = re.match(r"\s*- name: (.*)$", line)
        if step:
            name = step.group(1).strip()
            continue
        run = re.match(r"(\s*)run: (.*)$", line)
        if not run:
            continue
        indent, script = len(run.group(1)), run.group(2).strip()
        if script in ("|", ">-"):
            body = []
            while i < len(lines) and (
                not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
            ):
                body.append(lines[i].strip())
                i += 1
            script = ("\n" if script == "|" else " ").join(body).strip()
        steps.append((name, script))
    return steps


def artifacts(root: str = REPO) -> Dict[str, str]:
    """Artifact name → the ``bash`` script that runs it from ``root``."""
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.workloads import WORKLOADS
    from benchmarks.fence import SLICES

    out = {f"bench:{name}": f"python benchmarks/reach.py workload {name}" for name in WORKLOADS}
    out["pytest:benchmarks"] = (
        "python -m pytest benchmarks -q -p no:cacheprovider --benchmark-disable"
    )
    for name in SLICES:
        out[f"fence:{name}"] = f"python benchmarks/fence.py manifest --slice {name} > /dev/null"
    for example in sorted(Path(root, "examples").glob("*.py")):
        out[f"example:{example.name}"] = (
            f'tree="$PWD"; cd "$(mktemp -d)" && python "$tree/examples/{example.name}"'
        )
    for name, script in ci_steps(os.path.join(root, ".github", "workflows", "ci.yml")):
        if CI_COMMAND.search(script) and not any(s in script for s in NOT_ARTIFACTS):
            out[f"ci:{name}"] = script
    return out


def run(
    root: str, package: str, scripts: Mapping[str, str], hook: str = HOOK
) -> Tuple[Dict[str, Set[Site]], Dict[str, str]]:
    """Run each script in a scratch copy of ``root`` with the probe on
    ``src/``: the sites under ``src/<package>`` that each one entered, and
    the output of each that exited non-zero."""
    reached: Dict[str, Set[Site]] = {}
    failed: Dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(root, tree, ignore=_IGNORED)
        shutil.copy2(hook, os.path.join(tree, "src", "sitecustomize.py"))
        for name, script in scripts.items():
            out = tempfile.mkdtemp(prefix="out-", dir=tmp)
            env = dict(
                os.environ,
                PATH=os.path.dirname(sys.executable) + os.pathsep + os.environ.get("PATH", ""),
                PYTHONPATH=os.path.join(tree, "src"),
                PYTHONDONTWRITEBYTECODE="1",
                REACH_OUT=out,
                REACH_PKG=os.path.join(tree, "src", package),
                RUNNER_TEMP=tempfile.mkdtemp(prefix="runner-", dir=tmp),
            )
            print(f"reach: {name}", file=sys.stderr, flush=True)
            proc = subprocess.run(
                ["bash", "-e", "-c", script], cwd=tree, env=env,
                capture_output=True, text=True, check=False,
            )
            if proc.returncode:
                failed[name] = (proc.stdout + proc.stderr)[-2000:]
            sites: Set[Site] = set()
            for report in Path(out).iterdir():
                for line in report.read_text(encoding="utf-8").splitlines():
                    path, first, code_name = line.split("\t")
                    sites.add((path, int(first), code_name))
            reached[name] = sites
    return reached, failed


def reached_by(ids: Mapping[str, Site], reached: Mapping[str, Set[Site]]) -> Dict[str, List[str]]:
    """Function id → the artifacts (in run order) that entered it."""
    return {
        fid: [name for name, sites in reached.items() if site in sites]
        for fid, site in ids.items()
    }


def problems(by: Mapping[str, List[str]], kept: Mapping[str, str]) -> List[str]:
    """Every unreached function without a ``kept`` entry, and every entry
    whose function is reached or no longer exists."""
    out = [
        f"{fid}: reached by no artifact and not kept"
        for fid, names in by.items()
        if not names and fid not in kept
    ]
    for fid in kept:
        if fid not in by:
            out.append(f"{fid}: kept, but there is no such function")
        elif by[fid]:
            out.append(f"{fid}: kept, but reached by {', '.join(by[fid])}")
    return out


def dump(scripts: Mapping[str, str], by: Mapping[str, List[str]], kept: Mapping[str, str]) -> str:
    """REACH.json's text: one function per line, so a diff names it."""

    def block(items: Iterable[Tuple[str, object]]) -> str:
        return ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in items)

    unreached = sum(1 for names in by.values() if not names)
    return (
        "{\n"
        f' "functions": {len(by)},\n'
        f' "unreached": {unreached},\n'
        f' "artifacts": {{\n{block(scripts.items())}\n }},\n'
        f' "kept": {{\n{block(sorted(kept.items()))}\n }},\n'
        f' "reached_by": {{\n{block(sorted(by.items()))}\n }}\n'
        "}\n"
    )


def workload(name: str) -> int:
    """Set up, run and verify one ``bench`` workload in this process."""
    if REPO not in sys.path:
        sys.path.insert(0, REPO)
    from bench.workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix="reach-workload-") as tmp:
        chosen = WORKLOADS[name]
        state = chosen.setup(SEED, 1.0, Path(tmp))
        chosen.run(state)
        failures = chosen.verify(state)
    for line in failures:
        print(f"{name}: {line}", file=sys.stderr)
    return 1 if failures else 0


def census(
    write: bool,
    root: str = REPO,
    package: str = PACKAGE,
    scripts: Optional[Mapping[str, str]] = None,
    results: str = RESULTS,
) -> int:
    """Run every artifact (``scripts``, default :func:`artifacts`) from
    ``root`` against ``src/<package>`` and compare with the ``kept``
    entries of ``results``; with ``write``, rewrite ``results``."""
    scripts = artifacts(root) if scripts is None else scripts
    ids = functions(os.path.join(root, "src", package))
    reached, failed = run(root, package, scripts)
    by = reached_by(ids, reached)
    kept = {}
    if os.path.exists(results):
        with open(results, encoding="utf-8") as fh:
            kept = json.load(fh)["kept"]
    found = problems(by, kept)
    if write:
        with open(results, "w", encoding="utf-8") as fh:
            fh.write(dump(scripts, by, kept))
    for name, output in failed.items():
        print(f"artifact {name} failed:\n{output}")
    for line in found:
        print(line)
    unreached = sum(1 for names in by.values() if not names)
    print(f"reach: {len(scripts)} artifacts, {len(ids)} functions, {unreached} unreached, "
          f"{len(kept)} kept, {len(found)} problem(s), {len(failed)} failed artifact(s)")
    return 1 if found or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("census", help="run every artifact and rewrite results/REACH.json")
    sub.add_parser("check", help="run every artifact and compare with results/REACH.json")
    p_work = sub.add_parser("workload", help="set up, run and verify one bench workload")
    p_work.add_argument("name")
    args = parser.parse_args(argv)
    if args.command == "workload":
        return workload(args.name)
    return census(write=args.command == "census")


if __name__ == "__main__":
    sys.exit(main())
