"""The measured split of ``sim − model`` (``benchmarks/test_model_residual.py``)
on two small deployments: one where no storage request waits, and one where
requests queue at the storage nodes."""

import pytest

from benchmarks.test_model_residual import parts_total, split_config
from repro.experiments import run_point
from repro.observe import profile_execution
from repro.workloads import GridSpec

#: (spec, n_s, n_j): degree 1 on two nodes each, where no request waits,
#: and a finely cut right table on three, where requests collide
QUIET = (GridSpec((32, 32, 32), (8, 8, 8), (8, 8, 8)), 2, 2)
QUEUED = (GridSpec((32, 32, 32), (8, 8, 8), (4, 4, 4)), 3, 3)


@pytest.fixture(scope="module", params=[QUIET, QUEUED], ids=["quiet", "queued"])
def case(request):
    spec, n_s, n_j = request.param
    return request.param, split_config(spec, n_s, n_j, 1.0, 0)


def test_no_queueing_where_no_request_waits(case):
    (spec, n_s, n_j), split = case
    ij = split["ij"]
    if (spec, n_s, n_j) == QUIET:
        assert ij["storage_requests_queued"] == 0
        assert ij["queueing_s"] == 0.0
        # the bound ROADMAP item 2(iii) states for this regime
        assert abs(ij["sim_s"] - ij["model_s"]) <= 0.02 * ij["model_s"]
    else:
        assert ij["storage_requests_queued"] > 0
        assert ij["queueing_s"] > 0


@pytest.mark.parametrize("qes", ["ij", "gh"])
def test_split_is_the_profiled_run_and_telescopes(case, qes):
    (spec, n_s, n_j), split = case
    point = run_point(spec, n_s, n_j, telemetry=True)
    report = point.ij_report if qes == "ij" else point.gh_report
    profile = profile_execution(point.params, report)
    s = split[qes]
    assert s["sim_s"] == report.total_time
    assert s["model_s"] == profile.predicted_total_s
    assert {name: row["observed_s"] for name, row in s["profile"].items()} == {
        op.name: op.observed_s for op in profile.operators
    }
    assert s["model_s"] + parts_total(s) == pytest.approx(s["sim_s"], rel=1e-9)


def test_ij_split_is_the_joiners_phase_time(case):
    """A synchronous joiner waits on one thing at a time, so the
    recorder's transfer and queueing seconds are the QES's own transfer
    waits, and its cpu seconds the build and probe waits."""
    (_, _, n_j), split = case
    ij = split["ij"]
    busy = {name: row["busy_s"] for name, row in ij["profile"].items()}
    assert ij["unexplained_s"] == 0.0
    assert ij["terms"]["transfer"]["attributed_s"] + ij["queueing_s"] == \
        pytest.approx(busy["transfer"] / n_j, rel=1e-12)
    assert ij["terms"]["cpu"]["attributed_s"] == \
        pytest.approx((busy["hash-build"] + busy["probe"]) / n_j, rel=1e-12)
