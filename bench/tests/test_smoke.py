"""Smoke tests of the benchmark itself, at a twentieth of its size.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``; tier-1
(``testpaths = tests``) does not collect this file.
"""

import copy
import json
import re
import subprocess
import sys
import time

import pytest

from bench import ROOT, trace
from bench.child import run_repetition
from bench.compare import compare_files, verdict
from bench.metrics import MANIFEST, SPAN_LAYERS, emit, layer_metrics, unit_metrics
from bench.runner import WORKLOAD_NAMES
from bench.workloads import WORKLOADS

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def repetition(workload: str, mode: str) -> dict:
    spec = {"workload": workload, "seed": 700, "scale": SCALE, "mode": mode}
    return run_repetition(spec, started=time.perf_counter())


def originals():
    return [trace._resolve(module, owner, attr)[1]
            for module, owner, attr, _, _ in trace.BOUNDARIES]


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def passes(request):
    before = originals()
    reports = {mode: repetition(request.param, mode)
               for mode in ("plain", "spans", "profile")}
    return request.param, before, reports


def test_oracles_pass_and_replays_agree(passes):
    _, _, reports = passes
    assert all(rep["failures"] == [] for rep in reports.values())
    assert len({rep["digest"] for rep in reports.values()}) == 1
    assert len({rep["events"] for rep in reports.values()}) == 1
    assert reports["plain"]["events"] > 0


def test_emitted_names_are_the_declared_names(passes):
    workload, _, reports = passes
    bypass = reports["plain"] if workload == "serve_observed" else None
    per_layer = emit(layer_metrics(reports["plain"], reports["spans"],
                                   reports["profile"], bypass), "per_layer")
    unit = unit_metrics(reports["plain"])
    end_to_end = emit({m["name"]: unit[m["name"]] for m in MANIFEST["end_to_end"]},
                      "end_to_end")
    for name, metric in {**per_layer, **end_to_end}.items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], (int, float))
    assert all(metric["value"] > 0 for metric in end_to_end.values())


def test_spans_nest_and_self_times_add_up(passes):
    _, _, reports = passes
    payload = reports["spans"]["trace"]
    spans = payload["spans"]
    root = spans[0]
    assert root["layer"] == trace.ROOT_LAYER and root["parent"] == -1
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    total_self = sum(layer["self_s"] for layer in payload["layers"].values())
    assert total_self == pytest.approx(root["end"] - root["start"], rel=0.01)
    for layer in payload["layers"].values():
        assert layer["self_s"] <= layer["busy_s"] * (1 + 1e-9)
    known = set(SPAN_LAYERS) | {trace.ROOT_LAYER, trace.PILOT_LAYER, "experiments"}
    assert known >= set(payload["layers"])


def test_shares_sum_to_one(passes):
    _, _, reports = passes
    shares = reports["profile"]["shares"]
    assert set(shares) == set(trace.SHARE_PACKAGES)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)


def test_wrappers_are_removed(passes):
    workload, before, _ = passes
    assert originals() == before
    # and an untraced call after a traced one runs the original callables
    again = repetition(workload, "plain")
    assert "trace" not in again and originals() == before


def test_prediction_table_zeros():
    """The falsifiable half of the prediction table that holds at any size."""
    model = repetition("serve_model", "spans")["trace"]
    assert model["join_kernel"]["records_in"] == 0
    assert "joins.hash_join" not in model["layers"]
    functional = repetition("serve_functional", "spans")
    assert functional["trace"]["layers"]["joins.hash_join"]["calls"] > 0
    assert functional["counts"]["services.cache.evictions"] == 0


def test_arrivals_are_delivered_at_their_timestamps(tmp_path):
    """The server wakes for an arrival with ``timeout(at - now)``.  Off the
    grid, seed 4242's stream wakes one ulp early for a query admitted in
    that instant, and its queue wait of -1e-17 s kills the serve."""
    now = 0.0
    for arrival in WORKLOADS["serve_model"].setup(4242, 1.0, tmp_path)["arrivals"]:
        if arrival.at > now:
            now += arrival.at - now
        assert now == arrival.at


@pytest.mark.parametrize("traced", [0, 1])
def test_measure_prints_the_result_object_last(traced):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "serve_chaos",
         "--seed", "3", "--seconds", "0.1", "--trace", str(traced),
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if traced else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST[kind]]


def test_compare_verdicts():
    def entry(*samples):
        return {"value": sorted(samples)[len(samples) // 2], "samples": list(samples)}

    steady = entry(1.00, 1.01, 0.99)
    assert verdict("wall_s", steady, entry(1.02, 1.03, 1.01), 0.10)["verdict"] == "ok"
    assert verdict("wall_s", steady, entry(1.20, 1.21, 1.19), 0.10)["verdict"] == "worse"
    assert verdict("wall_s", steady, entry(0.80, 0.81, 0.79), 0.10)["verdict"] == "better"
    # repetitions pair up: -10 %, +29 %, +6 % is a median inside the bound
    # that the run is too noisy to stand behind
    assert verdict("wall_s", steady, entry(0.90, 1.30, 1.05), 0.10)["verdict"] == "unresolved"
    # higher is better: a drop is what counts as worse
    assert verdict("queries_per_s", steady, entry(0.8, 0.81, 0.79), 0.10)["verdict"] == "worse"
    # an exact metric has no noise to hide behind
    exact = {"value": 0.123, "samples": [0.123] * 3}
    moved = {"value": 0.124, "samples": [0.124] * 3}
    assert verdict("model_error_max", exact, moved, 0.0)["verdict"] == "worse"
    assert verdict("model_error_max", exact, exact, 0.0)["verdict"] == "ok"


def test_compare_fails_runs_that_did_not_agree(tmp_path, capsys):
    run = {
        "header": {"seed": 7, "scale": 1.0},
        "bounds": {"wall_s": 0.25, "completed_share": 0.0},
        "workloads": {"serve_chaos": {
            "correct": True, "problems": [],
            "end_to_end": {
                "wall_s": {"value": 3.0, "samples": [3.0, 3.1, 2.9]},
                "completed_share": {"value": 0.9, "samples": [0.9, 0.91, 0.89]},
            },
            "digests": {"untraced": ["a", "b", "c"], "traced": ["a", "a", "a"]},
        }},
    }

    def exit_code(change) -> int:
        for name, document in (("parent", run), ("change", change)):
            (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
        return compare_files(tmp_path / "parent", tmp_path / "change")

    assert exit_code(run) == 0
    wrong = copy.deepcopy(run)
    wrong["workloads"]["serve_chaos"].update(correct=False, problems=["q3: 2 records"])
    assert exit_code(wrong) == 1
    other = copy.deepcopy(run)
    other["workloads"]["serve_chaos"]["digests"]["untraced"][1] = "x"
    assert exit_code(other) == 1
    longer = copy.deepcopy(other)
    longer["workloads"]["serve_chaos"]["digests"]["untraced"].append("d")
    assert exit_code(longer) == 1
    assert "do not pair" in capsys.readouterr().out
    # on pinned seeds one query more shed is a regression, not noise
    shed = copy.deepcopy(run)
    shed["workloads"]["serve_chaos"]["end_to_end"]["completed_share"] = {
        "value": 0.9, "samples": [0.9, 0.91, 0.8867]}
    assert exit_code(shed) == 1
