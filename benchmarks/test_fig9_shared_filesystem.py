"""Figure 9: shared (NFS) filesystem.

Paper protocol (Section 6.2): "a single Network File System (NFS) storage
server serves all the I/O needs of both algorithms ... compute nodes are
assumed to not have local disks.  Results obtained show that GH suffers
considerably more than IJ from the shared nature of storage, so much so
that increasing the number of compute nodes worsens performance.  This is
expected as only GH writes buckets to disk.  IJ is definitely the better
choice under such scenarios."

The mechanism behind "more compute nodes makes GH worse" is server-side
request overhead: every batch a client writes costs the shared server a
seek, and Grace Hash's batch count grows with the number of compute nodes
(each chunk splits into one batch per joiner).  The NFS machine spec
therefore carries a 5 ms per-request disk latency — the one experiment
where fixed costs, not just bandwidths, drive the result.  The analytic
model (latency-free) still captures the IJ-vs-GH ordering; the seek storm
is what turns GH's flat line into a rising one.
"""

from benchmarks.harness import fmt, record_table
from repro.experiments.figures import run_figure9


def test_fig9_shared_filesystem(benchmark):
    results = benchmark.pedantic(run_figure9, rounds=1, iterations=1)
    spec = results[0][1].spec

    rows = [
        [
            n_j,
            fmt(r.ij_sim), fmt(r.ij_pred),
            fmt(r.gh_sim), fmt(r.gh_pred),
            fmt(r.gh_sim / r.ij_sim, 1) + "x",
        ]
        for n_j, r in results
    ]
    record_table(
        "fig9_shared_filesystem",
        f"Figure 9 — single NFS server, diskless compute nodes "
        f"(dataset {spec.g}, 5 ms server seek per request)",
        ["n_j", "IJ sim (s)", "IJ model", "GH sim (s)", "GH model", "GH/IJ"],
        rows,
        notes=["model columns are the latency-free closed forms: they rank the "
               "algorithms correctly but cannot show GH's seek-driven rise"],
    )

    # claim: IJ is definitely the better choice under shared storage
    for n_j, r in results:
        assert r.ij_sim < r.gh_sim, f"GH beat IJ at n_j={n_j}"

    # claim: GH suffers considerably more — at least 2x slower throughout
    assert all(r.gh_sim / r.ij_sim > 2.0 for _, r in results)

    # claim: increasing the number of compute nodes WORSENS GH performance
    gh_times = [r.gh_sim for _, r in results]
    assert all(b > a for a, b in zip(gh_times, gh_times[1:])), gh_times
    assert gh_times[-1] > gh_times[0] * 1.2

    # IJ does not degrade as compute nodes are added
    ij_times = [r.ij_sim for _, r in results]
    assert ij_times[-1] <= ij_times[0] * 1.05

    # sanity: every byte flowed through the single server in both cases
    total_bytes = 2 * spec.T * results[0][1].params.RS_R
    for _, r in results:
        assert r.ij_report.bytes_from_storage == total_bytes
        assert r.gh_report.bytes_scratch_written == total_bytes
