"""Figure 4: execution time under varying ``n_e · c_S``.

Paper protocol (Section 6.1): constant grid size, partition sizes varied in
powers of two, constant edge ratio, 5 storage + 5 compute nodes.  Expected
shape: Grace Hash flat (insensitive to ``n_e·c_S``); Indexed Join linear in
``n_e·c_S``; IJ wins on the left of a crossover, GH on the right, and the
cost models "predict the crossover point accurately".
"""

import pytest

from benchmarks.harness import fmt, record_table
from repro import crossover_ne_cs
from repro.experiments.figures import run_figure4


def test_fig4_vary_ne_cs(benchmark):
    series = benchmark.pedantic(run_figure4, rounds=1, iterations=1)
    results = [r for _, r in series]
    first = results[0]

    rows = [
        [
            f"{r.spec.ne_cs:,}",
            fmt(r.ij_sim), fmt(r.ij_pred),
            fmt(r.gh_sim), fmt(r.gh_pred),
            r.sim_winner,
        ]
        for r in results
    ]
    predicted_x = crossover_ne_cs(first.params)
    record_table(
        "fig4_vary_ne_cs",
        f"Figure 4 — execution time vs n_e*c_S "
        f"(grid {first.spec.g}, component {first.spec.q}, edge ratio "
        f"{first.spec.edge_ratio:.2e} constant, "
        f"{first.params.n_s}+{first.params.n_j} nodes)",
        ["n_e*c_S", "IJ sim (s)", "IJ model", "GH sim (s)", "GH model", "winner"],
        rows,
        notes=[f"model-predicted crossover: n_e*c_S = {predicted_x:,.0f}"],
    )

    # claim: GH is insensitive to n_e*c_S
    gh_times = [r.gh_sim for r in results]
    assert max(gh_times) / min(gh_times) < 1.1

    # claim: IJ grows (roughly linearly) with n_e*c_S
    ij_times = [r.ij_sim for r in results]
    assert all(b > a for a, b in zip(ij_times, ij_times[1:]))
    # doubling n_e*c_S eventually doubles IJ time (lookup-dominated regime)
    assert ij_times[-1] / ij_times[-2] == pytest.approx(2.0, rel=0.15)

    # claim: IJ wins at small n_e*c_S, GH at large — a single crossover
    winners = [r.sim_winner for r in results]
    assert winners[0] == "IJ" and winners[-1] == "GH"
    flip = winners.index("GH")
    assert all(w == "GH" for w in winners[flip:])

    # claim: the models predict the crossover point accurately —
    # simulated flip happens within one sweep step of the model's flip
    model_winners = [r.model_winner for r in results]
    model_flip = model_winners.index("GH")
    assert abs(flip - model_flip) <= 1

    # and the predicted crossover abscissa lies between the neighbouring
    # sweep points of the simulated flip
    assert results[flip - 1].spec.ne_cs <= predicted_x <= results[flip].spec.ne_cs * 2

    # claim (Section 6.1): models fit simulated execution times closely
    for r in results:
        assert r.ij_error < 0.20, f"IJ error {r.ij_error:.1%} at {r.spec.ne_cs}"
        assert r.gh_error < 0.20, f"GH error {r.gh_error:.1%} at {r.spec.ne_cs}"
