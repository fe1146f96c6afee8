"""Figure 5: execution time vs number of compute nodes.

Paper protocol: a dataset with *low* ``n_e·c_S`` (degree 1 — IJ's best
case), 5 storage nodes, compute nodes swept.  Expected shape: IJ
outperforms GH at every point; the gap *decreases* as compute nodes are
added — "the difference in execution times is inversely proportional to
the number of compute nodes".
"""

from benchmarks.harness import fmt, record_table
from repro.experiments.figures import run_figure5


def test_fig5_vary_compute_nodes(benchmark):
    results = benchmark.pedantic(run_figure5, rounds=1, iterations=1)
    first = results[0][1]

    rows = [
        [
            n_j,
            fmt(r.ij_sim), fmt(r.ij_pred),
            fmt(r.gh_sim), fmt(r.gh_pred),
            fmt(r.gh_sim - r.ij_sim),
        ]
        for n_j, r in results
    ]
    record_table(
        "fig5_vary_compute_nodes",
        f"Figure 5 — execution time vs compute nodes "
        f"(low n_e*c_S dataset {first.spec.g}, degree 1, "
        f"{first.params.n_s} storage nodes)",
        ["n_j", "IJ sim (s)", "IJ model", "GH sim (s)", "GH model", "gap (s)"],
        rows,
    )

    # claim: IJ outperforms GH at every compute-node count (low n_e*c_S)
    for n_j, r in results:
        assert r.ij_sim < r.gh_sim, f"GH beat IJ at n_j={n_j}"

    # claim: the gap decreases as compute nodes are added
    gaps = [r.gh_sim - r.ij_sim for _, r in results]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))

    # claim: the gap is inversely proportional to n_j — gap * n_j constant
    scaled = [gap * n_j for (n_j, _), gap in zip(results, gaps)]
    assert max(scaled) / min(scaled) < 1.3

    # both algorithms themselves speed up with more compute nodes
    ij_times = [r.ij_sim for _, r in results]
    gh_times = [r.gh_sim for _, r in results]
    assert ij_times[-1] < ij_times[0]
    assert gh_times[-1] < gh_times[0]

    # model fit holds across the topology sweep
    for n_j, r in results:
        assert r.ij_error < 0.20 and r.gh_error < 0.20
