"""Figure 6: execution time vs number of tuples (up to 2 billion).

Paper protocol: grow the grid (hence ``T``) with partition sizes fixed;
"we used a maximum of 2 billion tuples in this experiment.  As expected,
both approaches scale linearly with this factor.  Since the difference in
execution times also grows linearly, a good choice can make a big
difference when tables involved are very large."
"""

import pytest

from benchmarks.harness import fmt, record_table
from repro.experiments.figures import run_figure6


def test_fig6_vary_tuples(benchmark):
    # degree-1 dataset, T from 2.1M to 2.1B tuples
    series = benchmark.pedantic(run_figure6, rounds=1, iterations=1)
    results = [r for _, r in series]
    base = results[0]
    factors = [t // base.spec.T for t, _ in series]

    rows = [
        [
            f"{r.spec.T:,}",
            fmt(r.ij_sim), fmt(r.ij_pred),
            fmt(r.gh_sim), fmt(r.gh_pred),
            fmt(r.gh_sim - r.ij_sim),
        ]
        for r in results
    ]
    record_table(
        "fig6_vary_tuples",
        f"Figure 6 — execution time vs T (partitions fixed at "
        f"p={base.spec.p}, q={base.spec.q}; "
        f"{base.params.n_s}+{base.params.n_j} nodes)",
        ["T", "IJ sim (s)", "IJ model", "GH sim (s)", "GH model", "gap (s)"],
        rows,
    )

    # the paper's top end: at least 2 billion tuples
    assert results[-1].spec.T >= 2_000_000_000

    # claim: both approaches scale linearly with T
    for r, factor in zip(results, factors):
        assert r.ij_sim == pytest.approx(base.ij_sim * factor, rel=0.10), (
            f"IJ not linear at factor {factor}"
        )
        assert r.gh_sim == pytest.approx(base.gh_sim * factor, rel=0.10), (
            f"GH not linear at factor {factor}"
        )

    # claim: the difference also grows linearly -> choice matters at scale
    base_gap = base.gh_sim - base.ij_sim
    last_gap = results[-1].gh_sim - results[-1].ij_sim
    assert last_gap == pytest.approx(base_gap * factors[-1], rel=0.15)
    assert last_gap > 100  # seconds — "a big difference" at 2B tuples

    # degree-1 dataset: IJ is the right choice at every size
    assert all(r.sim_winner == "IJ" for r in results)
