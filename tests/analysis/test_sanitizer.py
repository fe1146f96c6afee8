"""Runtime sanitizer tests: invariant hooks fire, violations are caught,
and a sanitized run is observationally identical to an unsanitized one."""

import types

import pytest

from repro.analysis.sanitizer import (
    RunSanitizer,
    SanitizerViolation,
    compare_digests,
    full_digest,
    semantic_digest,
)
from repro.cluster import paper_cluster
from repro.cluster.events import SimEngine
from repro.experiments.runner import run_point
from repro.joins import IndexedJoinQES
from repro.services.cache import CachingService, QueryCacheView, make_policy
from repro.workloads import GridSpec, build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))


# -- end-to-end: sanitized runs are transparent --------------------------------------


def test_sanitized_run_point_matches_unsanitized():
    plain = run_point(SPEC, n_s=2, n_j=2)
    sanitized = run_point(SPEC, n_s=2, n_j=2, sanitize=True)
    assert sanitized.ij_sim == plain.ij_sim
    assert sanitized.gh_sim == plain.gh_sim
    assert full_digest(sanitized.ij_report) == full_digest(plain.ij_report)
    assert full_digest(sanitized.gh_report) == full_digest(plain.gh_report)


def test_sanitized_run_point_under_faults():
    kwargs = dict(faults="seed=7,transient=0.2,storage_crash=0.01", replication=2)
    plain = run_point(SPEC, n_s=2, n_j=2, **kwargs)
    sanitized = run_point(SPEC, n_s=2, n_j=2, sanitize=True, **kwargs)
    assert full_digest(sanitized.ij_report) == full_digest(plain.ij_report)
    assert full_digest(sanitized.gh_report) == full_digest(plain.gh_report)


def test_sanitized_trace_dump_matches_unsanitized(tmp_path, capsys):
    """``repro trace --sanitize`` prints and writes what the unsanitized
    command does: the sanitizer's untraced shadow run shares the catalog
    with the traced one, and must not count into its metrics."""
    from repro.cli import main

    argv = ["trace", "--grid", "16,16", "--p", "4,4", "--q", "8,8",
            "--storage", "2", "--compute", "3", "--dump", "--replication", "2",
            "--faults", "seed=7,transient=0.3,storage_crash=0.5"]
    outputs = []
    for flags in ([], ["--sanitize"]):
        out = tmp_path / ("sanitized" if flags else "plain")
        out.mkdir()
        assert main(argv + flags + ["--out", str(out / "t.json")]) == 0
        outputs.append((
            capsys.readouterr().out.replace(str(out), "OUT"),
            (out / "t.ij.json").read_bytes(),
            (out / "t.gh.json").read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_sanitized_join_through_per_query_views():
    """A sanitized Indexed Join given per-query cache views checks the
    shared caches behind them, and takes the time it takes on those."""
    ds = build_oil_reservoir_dataset(GridSpec((16, 16), (4, 4), (2, 2)), num_storage=2, seed=7)

    def total_time(front):
        caches = [front(CachingService(10**6, make_policy("lru"))) for _ in range(2)]
        return IndexedJoinQES(
            paper_cluster(2, 2), ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            caches=caches, sanitizer=RunSanitizer(),
        ).run().total_time

    assert total_time(lambda cache: QueryCacheView(cache, qid=1)) == total_time(lambda cache: cache)


# -- individual hooks ----------------------------------------------------------------


def test_clock_monotonicity_probe():
    san = RunSanitizer(label="clk")
    engine = SimEngine()
    san.attach_engine(engine)
    engine.timeout(1.0)
    engine.timeout(2.0)
    engine.run()
    assert san.checks["clock"] >= 2
    with pytest.raises(SanitizerViolation, match="clock moved backwards"):
        san._on_advance(engine.now - 1.0)


def test_cache_ledger_corruption_detected():
    san = RunSanitizer(label="cache")
    cache = CachingService(capacity_bytes=100)
    san.attach_cache(cache, name="c0")
    assert cache.put("a", object(), 10)
    assert san.checks["cache"] == 1
    cache._bytes += 1  # corrupt the ledger behind the cache's back
    with pytest.raises(SanitizerViolation, match="resident-byte ledger"):
        cache.put("b", object(), 10)


def test_negative_pin_detected():
    san = RunSanitizer()
    cache = CachingService(capacity_bytes=100)
    san.attach_cache(cache, name="c0")
    cache.put("a", object(), 10)
    cache._entries["a"].pins = -1
    with pytest.raises(SanitizerViolation, match="negative pin count"):
        cache.put("b", object(), 10)


def test_staged_bytes_at_quiesce_detected():
    # the staging protocol at quiesce: a prefetch_begin nobody completes
    # or cancels must fail the run
    san = RunSanitizer(label="staged")
    engine = SimEngine()
    san.attach_engine(engine)
    cache = CachingService(capacity_bytes=100)
    san.attach_cache(cache, name="c0")
    assert cache.prefetch_begin("a", 10)
    engine.run()
    with pytest.raises(SanitizerViolation, match="staged prefetch bytes"):
        san.after_run(engine, report=None)


def test_taken_prefetch_passes_quiesce():
    san = RunSanitizer(label="staged-ok")
    engine = SimEngine()
    san.attach_engine(engine)
    cache = CachingService(capacity_bytes=100)
    san.attach_cache(cache, name="c0")
    assert cache.prefetch_begin("a", 10)
    cache.prefetch_complete("a", object())
    cache.take_prefetched("a")
    engine.run()
    report = types.SimpleNamespace(bytes_from_storage=0)
    san.after_run(engine, report=report)


def test_pending_process_detected_at_end_of_run():
    san = RunSanitizer(label="pending")
    engine = SimEngine()
    san.attach_engine(engine)

    def blocked():
        yield engine.event()  # nobody will ever trigger this

    engine.process(blocked(), name="stranded-reader")
    engine.run()
    with pytest.raises(SanitizerViolation, match="stranded-reader"):
        san.after_run(engine, report=None)


def test_reversed_tie_break_flips_same_time_order():
    def order_of(tie_break):
        engine = SimEngine(tie_break=tie_break)
        order = []
        for label in ("a", "b", "c"):
            ev = engine.timeout(1.0)
            ev.callbacks.append(lambda _, label=label: order.append(label))
        engine.run()
        return order

    assert order_of("fifo") == ["a", "b", "c"]
    assert order_of("reversed") == ["c", "b", "a"]


def test_unknown_tie_break_rejected():
    with pytest.raises(ValueError):
        SimEngine(tie_break="random")


# -- digests -------------------------------------------------------------------------


def test_compare_digests_names_every_diverging_key():
    primary = {"pairs_joined": 8, "bytes_from_storage": 100, "algorithm": "IJ"}
    shadow = {"pairs_joined": 7, "bytes_from_storage": 90, "algorithm": "IJ"}
    with pytest.raises(SanitizerViolation) as exc:
        compare_digests(primary, shadow, "unit-test shadow")
    msg = str(exc.value)
    assert "pairs_joined" in msg and "bytes_from_storage" in msg
    assert "algorithm" not in msg


def test_semantic_digest_is_subset_of_full_digest():
    report = run_point(SPEC, n_s=2, n_j=2).ij_report
    semantic = semantic_digest(report)
    full = full_digest(report)
    assert set(semantic) <= set(full)
    assert all(full[k] == v for k, v in semantic.items())
    assert "total_time" in full and "total_time" not in semantic
