"""Figure 7: execution time vs number of attributes (record size).

Paper protocol: "we varied the number of attributes in both tables.  Each
attribute was of size 4 bytes.  Varying the record size only affects
transfer and read/write costs."  The sweep runs from the evaluation's
4-attribute tables up to the 21 attributes of the full oil-reservoir
schema (Section 2).
"""

import pytest

from benchmarks.harness import fmt, record_table
from repro.experiments.figures import run_figure7


def test_fig7_vary_attributes(benchmark):
    results = benchmark.pedantic(run_figure7, rounds=1, iterations=1)
    first = results[0][1]

    rows = [
        [
            n_attrs,
            r.params.RS_R,
            fmt(r.ij_sim), fmt(r.ij_pred),
            fmt(r.gh_sim), fmt(r.gh_pred),
        ]
        for n_attrs, r in results
    ]
    record_table(
        "fig7_vary_attributes",
        f"Figure 7 — execution time vs attributes (grid {first.spec.g}, 4-byte "
        f"attributes, {first.params.n_s}+{first.params.n_j} nodes)",
        ["attrs", "RS (B)", "IJ sim (s)", "IJ model", "GH sim (s)", "GH model"],
        rows,
    )

    # both algorithms slow down as records widen
    ij_times = [r.ij_sim for _, r in results]
    gh_times = [r.gh_sim for _, r in results]
    assert all(b > a for a, b in zip(ij_times, ij_times[1:]))
    assert all(b > a for a, b in zip(gh_times, gh_times[1:]))

    # claim: record size only affects transfer and read/write costs —
    # the CPU component is identical across the sweep
    cpu0 = results[0][1].ij_report.aggregate_phases().cpu
    cpuN = results[-1][1].ij_report.aggregate_phases().cpu
    assert cpu0 == pytest.approx(cpuN, rel=1e-6)

    # GH pays I/O per byte three ways (wire, write, read): its time grows
    # faster with record size than IJ's
    ij_slope = ij_times[-1] - ij_times[0]
    gh_slope = gh_times[-1] - gh_times[0]
    assert gh_slope > ij_slope * 1.5

    # growth is linear in record size: time ~ a + b*RS
    rs = [r.params.RS_R for _, r in results]
    for times in (ij_times, gh_times):
        slope = (times[-1] - times[0]) / (rs[-1] - rs[0])
        for t, s in zip(times, rs):
            assert t == pytest.approx(times[0] + slope * (s - rs[0]), rel=0.08)

    # model fit
    for _, r in results:
        assert r.ij_error < 0.20 and r.gh_error < 0.20
