"""``benchmarks/reach.py``: the census sees what an artifact runs, in its
own process and in the processes it starts, and its check names every
unreached function that has no ``kept`` entry.  (Running the census over
the committed artifacts is CI's job.)"""

import json
import textwrap

from benchmarks import reach

MODULE = '''
import functools


def used():
    return 1


def planted():
    return 2


class Box:
    @property
    def size(self):
        return 3

    @size.setter
    def size(self, value):
        pass

    @functools.lru_cache(maxsize=None)
    def cached(self):
        return 4
'''

#: a child of the artifact's process imports the package and calls used()
CHILD = (
    "python -c 'import subprocess, sys; subprocess.run([sys.executable, \"-c\", "
    "\"from pkg.mod import used; used()\"], check=True)'"
)


def tree(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(MODULE))
    return tmp_path


def test_functions_names_every_def_by_its_code_objects_first_line(tmp_path):
    ids = reach.functions(str(tree(tmp_path) / "src" / "pkg"))
    assert sorted(ids) == [
        "mod.py:Box.cached", "mod.py:Box.size", "mod.py:Box.size#2",
        "mod.py:planted", "mod.py:used",
    ]
    from_code = {}
    namespace = {}
    exec(compile(textwrap.dedent(MODULE), "mod.py", "exec"), namespace)
    box = namespace["Box"]
    from_code["mod.py:used"] = namespace["used"].__code__
    from_code["mod.py:Box.size"] = box.size.fget.__code__
    from_code["mod.py:Box.size#2"] = box.size.fset.__code__
    from_code["mod.py:Box.cached"] = box.cached.__wrapped__.__code__
    for fid, code in from_code.items():
        assert ids[fid] == ("mod.py", code.co_firstlineno, code.co_name)


def test_a_planted_function_is_unreached_and_a_childs_call_is_followed(tmp_path):
    root = tree(tmp_path)
    ids = reach.functions(str(root / "src" / "pkg"))
    reached, failed = reach.run(str(root), "pkg", {"child": CHILD, "nothing": "true"})
    assert failed == {}
    by = reach.reached_by(ids, reached)
    assert by["mod.py:used"] == ["child"]
    assert by["mod.py:planted"] == [] and by["mod.py:Box.size"] == []


def test_a_failing_artifact_is_reported(tmp_path):
    _, failed = reach.run(str(tree(tmp_path)), "pkg", {"boom": "echo oops; exit 3"})
    assert list(failed) == ["boom"] and "oops" in failed["boom"]


def test_check_fails_on_an_unreached_function_without_an_entry(tmp_path, capsys):
    root = tree(tmp_path)
    results = str(tmp_path / "REACH.json")
    keep_box = {"mod.py:Box.size": "data model", "mod.py:Box.size#2": "data model",
                "mod.py:Box.cached": "data model"}

    def check(kept):
        (tmp_path / "REACH.json").write_text(json.dumps({"kept": kept}))
        return reach.census(False, str(root), "pkg", {"child": CHILD}, results)

    assert check(keep_box) == 1
    assert "mod.py:planted: reached by no artifact and not kept" in capsys.readouterr().out
    assert check({**keep_box, "mod.py:planted": "planted on purpose"}) == 0
    # an entry must stay true: its function unreached and still there
    assert check({**keep_box, "mod.py:planted": "x", "mod.py:used": "x", "mod.py:gone": "x"}) == 1
    out = capsys.readouterr().out
    assert "mod.py:used: kept, but reached by child" in out
    assert "mod.py:gone: kept, but there is no such function" in out


def test_census_writes_one_function_per_line_and_keeps_the_entries(tmp_path):
    root = tree(tmp_path)
    results = tmp_path / "REACH.json"
    results.write_text(json.dumps({"kept": {"mod.py:planted": "why"}}))
    reach.census(True, str(root), "pkg", {"child": CHILD}, str(results))
    data = json.loads(results.read_text())
    assert data["kept"] == {"mod.py:planted": "why"}
    assert data["reached_by"]["mod.py:used"] == ["child"]
    assert data["artifacts"] == {"child": CHILD}
    assert (data["functions"], data["unreached"]) == (5, 4)
    assert '  "mod.py:used": ["child"]' in results.read_text().splitlines()


def test_the_ci_artifacts_are_the_workflows_repro_and_benchmark_steps():
    steps = dict(reach.ci_steps())
    assert steps["Sanitized serve run"].startswith("PYTHONPATH=src python -m repro serve")
    # a folded (>-) script is one line, a literal (|) one keeps its lines
    assert "\n" not in steps["Serving contract, larger budget"]
    assert len(steps["Sanitized join run"].splitlines()) == 2
    names = [name for name, _ in reach.ci_steps()]
    ci = {name[3:] for name in reach.artifacts() if name.startswith("ci:")}
    assert ci == {name for name in names if reach.CI_COMMAND.search(steps[name])
                  and not any(s in steps[name] for s in reach.NOT_ARTIFACTS)}
    assert "Protocol mutation matrix (runtime column)" not in ci
    assert "Tier-1 test suite" not in ci and "Sweep fence (the paper's figure sweeps)" in ci
