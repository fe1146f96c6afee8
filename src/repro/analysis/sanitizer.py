"""Runtime simulation sanitizer: invariant hooks for ``--sanitize`` runs.

A tier-1 test rejects one syntactic shape of engine misuse; this module
checks the *semantic invariants* a correct execution must satisfy, live,
while a join runs:

* **clock monotonicity** — the engine's clock never moves backwards
  across event dispatches (probed via :meth:`SimEngine.add_monitor`);
* **cache accounting** — after every mutating cache operation, resident
  bytes equal the sum of entry sizes and never exceed capacity, staged
  bytes equal the sum of reservations and never exceed the prefetch
  budget, and no pin count is negative; at end of run no entry may still
  be pinned (``pinned_bytes == 0`` at quiesce — leaked pins would
  permanently shrink a shared cache);
* **byte conservation** — every byte the report claims was pulled from
  storage corresponds to a transfer that actually succeeded on the
  simulated fabric (a completion callback on the event of every
  ``storage_read`` the engine's channel announces), with loss tolerated
  only when a compute node crashed (a successful transfer whose waiting
  joiner died is never accounted);
* **no stranded processes** — at the end of a run every spawned process
  has completed (succeeded or failed), i.e. nothing is silently blocked
  on an event nobody will trigger;
* **admission quiesce** (served streams only) — every admission slot is
  free again, every submitted query holds exactly one terminal record,
  the report's byte total is the sum over its records, and no query
  that did not complete carries an answer;
* **telemetry consistency** (telemetry-enabled runs only) — every span
  that was opened is closed, every span's end is at or after its start,
  child spans nest within their parents, and the critical-path analysis
  reproduces the reported makespan exactly with its segment durations
  summing back to that total.

On top of the hooks, :func:`semantic_digest` / :func:`full_digest`
summarise a report for the *same-timestamp nondeterminism detector*: the
runner shadow-executes the identical workload with the engine's
same-time tie-break reversed (see ``SimEngine(tie_break="reversed")``)
and flags any divergence in the observables a simulation is entitled to
report.  Generators cannot be forked mid-run, so the "fork" is realised
as a full second execution of the same pure-input workload.  A served
stream's shadow is :func:`repro.server.check_shadow_serve`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "SanitizerViolation",
    "RunSanitizer",
    "semantic_digest",
    "full_digest",
    "compare_digests",
]


class SanitizerViolation(AssertionError):
    """An execution broke a simulation invariant."""


class RunSanitizer:
    """Installable invariant checks for one QES execution.

    One instance watches one execution (one engine and its caches).
    Attach points are called by the QES ``run()`` methods when
    a sanitizer is passed; ``after_run`` performs the end-of-run checks
    and must be called exactly once, after the engine has drained.
    """

    def __init__(self, label: str = ""):
        self.label = label
        #: invariant evaluations performed, by kind — proof the hooks ran
        self.checks: Dict[str, int] = {
            "clock": 0,
            "cache": 0,
            "transfer": 0,
            "telemetry": 0,
            "after_run": 0,
        }
        #: bytes of storage transfers that *succeeded* on the fabric
        self.transferred_ok = 0
        self._last_now: Optional[float] = None
        self._caches: List[Tuple[str, object]] = []
        self._compute_crashed = False
        self._underclaim_ok: Optional[str] = None

    def _fail(self, message: str) -> None:
        prefix = f"[{self.label}] " if self.label else ""
        raise SanitizerViolation(f"{prefix}{message}")

    # -- attach points ----------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Probe every event dispatch for clock monotonicity, and tally
        the bytes of every storage read that succeeds.

        A ``storage_read`` event carries the exact event the QES waits on
        (the fault-guarded one), so the tally counts precisely the
        transfers whose success a control loop could have accounted.
        """
        self._last_now = engine.now
        engine.add_monitor(self._on_advance)
        engine.subscribe(self._on_event)

    def _on_event(self, kind: str, *fields) -> None:
        if kind == "storage_read":
            ev, _storage, _compute, nbytes = fields

            def done(read) -> None:
                self.checks["transfer"] += 1
                if read.ok:
                    self.transferred_ok += nbytes

            ev.callbacks.append(done)
        elif kind == "fault" and fields[0] == "compute-crash":
            self._compute_crashed = True

    def _on_advance(self, now: float) -> None:
        self.checks["clock"] += 1
        if self._last_now is not None and now < self._last_now:
            self._fail(
                f"simulation clock moved backwards: {self._last_now!r} -> {now!r}"
            )
        self._last_now = now

    def attach_cache(self, cache, name: str = "") -> None:
        """Re-check the cache's byte accounting after every mutation."""
        self._caches.append((name, cache))

        def validate(op, key, nbytes, qid) -> None:
            if op not in ("hit", "miss"):  # lookups mutate nothing
                self._check_cache(cache, name, op)

        cache.subscribe(validate)

    def _check_cache(self, cache, name: str, op: str) -> None:
        self.checks["cache"] += 1
        where = f"cache {name or '?'} after {op}"
        resident = sum(e.nbytes for e in cache._entries.values())
        if resident != cache._bytes:
            self._fail(
                f"{where}: resident-byte ledger {cache._bytes} != "
                f"sum of entry sizes {resident}"
            )
        if cache._bytes > cache.capacity_bytes:
            self._fail(
                f"{where}: {cache._bytes} resident bytes exceed capacity "
                f"{cache.capacity_bytes}"
            )
        staged = sum(s.nbytes for s in cache._staged.values())
        if staged != cache._staged_bytes:
            self._fail(
                f"{where}: staged-byte ledger {cache._staged_bytes} != "
                f"sum of reservations {staged}"
            )
        if cache._staged_bytes > cache.prefetch_budget_bytes:
            self._fail(
                f"{where}: {cache._staged_bytes} staged bytes exceed prefetch "
                f"budget {cache.prefetch_budget_bytes}"
            )
        negative = [k for k, e in cache._entries.items() if e.pins < 0]
        if negative:
            self._fail(f"{where}: negative pin count on {negative!r}")

    # -- end-of-run checks -------------------------------------------------------

    def after_run(self, engine, report) -> None:
        """Final invariants once the engine has drained."""
        self.checks["after_run"] += 1
        pending = engine.pending_processes()
        if pending:
            names = ", ".join(repr(p.name) for p in pending)
            self._fail(
                f"{len(pending)} process(es) still pending at end of run "
                f"(blocked on events nobody will trigger): {names}"
            )
        for name, cache in self._caches:
            self._check_cache(cache, name, "final")
            pinned = cache.pinned_bytes
            if pinned:
                held = sorted(
                    (k for k, e in cache._entries.items() if e.pins > 0),
                    key=repr,
                )
                self._fail(
                    f"cache {name or '?'} still holds {pinned} pinned bytes "
                    f"at quiesce (leaked pins on {held!r}); every pin must "
                    "be released by end of run"
                )
            staged = cache.prefetch_bytes
            if staged:
                keys = sorted(cache._staged, key=repr)
                self._fail(
                    f"cache {name or '?'} still holds {staged} staged "
                    f"prefetch bytes at quiesce (leaked reservations on "
                    f"{keys!r}); every prefetch must be taken or cancelled "
                    "by end of run"
                )
        self._check_conservation(report)
        tel = getattr(report, "telemetry", None)
        if tel is not None:
            self._check_telemetry(tel, report)

    def after_serve(self, server, report, submitted) -> None:
        """A served stream's quiesce, checked before :meth:`after_run`:
        every slot is free again; every submitted qid holds exactly one
        terminal record (a count alone would pass a query retired twice
        beside one never retired) with a known disposition; the report's
        byte total is its records' sum; no unfinished query answers."""
        if server._slots_free != server.slots:
            self._fail(
                f"{server._slots_free} of {server.slots} admission slots free "
                "at quiesce; every admitted query must hand its slot back"
            )
        recorded = set(server._records)
        if recorded != set(submitted) or server._terminal != len(submitted):
            missing = sorted(set(submitted) - recorded)
            self._fail(
                f"{server._terminal} terminal dispositions recorded for "
                f"{len(submitted)} submitted queries (no record for qids "
                f"{missing}); every query must reach exactly one"
            )
        summed = sum(r.bytes_from_storage for r in report.records)
        if report.bytes_from_storage != summed:
            self._fail(
                f"report claims {report.bytes_from_storage} bytes from storage "
                f"but its records sum to {summed}"
            )
        from repro.server.resilience import COMPLETED, DISPOSITIONS

        for r in report.records:
            if r.disposition not in DISPOSITIONS:
                self._fail(f"q{r.qid} ended in unknown disposition {r.disposition!r}")
            if r.disposition != COMPLETED and (r.result_records, r.pairs_joined) != (None, 0):
                self._fail(f"q{r.qid} ended {r.disposition} yet reports an answer")

    def allow_transfer_underclaim(self, reason: str) -> None:
        """Tolerate successful transfers the report does not claim.

        A caller that aborts executions mid-flight (server deadlines,
        retry supervision) strands in-flight transfers that complete
        with nobody left to account them; it declares that here, with a
        reason, before :meth:`after_run`.  Over-claiming — a report
        claiming bytes no transfer delivered — is never tolerated.
        """
        if not reason:
            self._fail("allow_transfer_underclaim needs a reason")
        self._underclaim_ok = reason

    def _check_conservation(self, report) -> None:
        claimed = report.bytes_from_storage
        if claimed > self.transferred_ok:
            self._fail(
                f"report claims {claimed} bytes from storage but only "
                f"{self.transferred_ok} bytes of transfers succeeded"
            )
        if (
            claimed < self.transferred_ok
            and self._underclaim_ok is None
            and not self._compute_crashed
        ):
            # without compute crashes every successful transfer has a live
            # waiter, so the ledgers must agree exactly
            self._fail(
                f"{self.transferred_ok - claimed} bytes of successful "
                f"transfers unaccounted in the report ({claimed} claimed, "
                f"{self.transferred_ok} transferred) with no compute crash "
                "to excuse the loss"
            )

    def _check_telemetry(self, tel, report) -> None:
        """Span-DAG invariants of a telemetry-enabled run.

        Timestamps are stamped from ``engine.now`` so nesting must hold
        exactly; the tiny epsilon only absorbs float formatting of the
        critical-path sum (an ``fsum`` of exact segment bounds).
        """
        self.checks["telemetry"] += 1
        still_open = tel.recorder.open_spans()
        if still_open:
            names = ", ".join(repr(s.name) for s in still_open[:5])
            self._fail(
                f"{len(still_open)} telemetry span(s) never closed: {names}"
            )
        by_id = {s.span_id: s for s in tel.recorder.spans}
        for span in tel.recorder.spans:
            if span.end < span.start:
                self._fail(
                    f"span {span.name!r} ends before it starts "
                    f"({span.end!r} < {span.start!r})"
                )
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            if span.start < parent.start or span.end > parent.end:
                self._fail(
                    f"span {span.name!r} [{span.start!r}, {span.end!r}] "
                    f"escapes its parent {parent.name!r} "
                    f"[{parent.start!r}, {parent.end!r}]"
                )
        cp = report.critical_path
        if cp is not None:
            if cp.total != report.total_time:
                self._fail(
                    f"critical-path total {cp.total!r} != reported makespan "
                    f"{report.total_time!r}"
                )
            tol = 1e-12 + 1e-9 * abs(cp.total)
            if abs(cp.attributed - cp.total) > tol:
                self._fail(
                    f"critical-path segments sum to {cp.attributed!r}, "
                    f"not the makespan {cp.total!r}"
                )


# -- report digests for the shadow-run comparison ------------------------------------


def _cache_digest(stats) -> Tuple:
    # prefetch counters are deliberately excluded: prefetch *effectiveness*
    # is timing-dependent by design; the main cache's hit/miss/eviction
    # sequence is the tie-break-invariant observable
    return (stats.hits, stats.misses, stats.evictions, stats.bytes_inserted)


def _results_digest(results) -> Optional[Tuple]:
    if results is None:
        return None
    return tuple(
        (len(per), sum(sub.num_records for sub in per)) for per in results
    )


def semantic_digest(report) -> Dict[str, object]:
    """The observables that must be invariant under same-time tie order.

    Excludes timing (phase breakdowns, total time), recovery counters and
    ``extras``: those legitimately depend on *which* equal-time event ran
    first, while the join's logical outcome may not.
    """
    return {
        "algorithm": report.algorithm,
        "pairs_joined": report.pairs_joined,
        "bytes_from_storage": report.bytes_from_storage,
        "kernel": (
            report.kernel.builds,
            report.kernel.probes,
            report.kernel.matches,
        ),
        "cache": tuple(_cache_digest(s) for s in report.cache_stats),
        "results": _results_digest(report.results),
        "result_tuples": report.result_tuples,
    }


def full_digest(report) -> Dict[str, object]:
    """Everything a report says, for exact replay comparison.

    Used when a fault plan is active: fault draws are counter-based and
    trace-order-dependent by design, so the shadow is a *canonical-order
    replay* (same tie-break) and the whole report must match bit-for-bit.
    """
    out = semantic_digest(report)
    rec = report.recovery
    out.update(
        {
            "total_time": report.total_time,
            "phases": tuple(
                (
                    pb.transfer,
                    pb.scratch_write,
                    pb.scratch_read,
                    pb.cpu_build,
                    pb.cpu_lookup,
                    pb.stall,
                )
                for pb in report.per_joiner
            ),
            "scratch": (report.bytes_scratch_written, report.bytes_scratch_read),
            "recovery": (
                rec.retries,
                rec.failovers,
                rec.reassigned_pairs,
                rec.restarted_chunks,
                rec.cache_invalidations,
                rec.wasted_seconds,
                rec.wasted_bytes,
            ),
            "extras": tuple(sorted(report.extras.items())),
        }
    )
    return out


def compare_digests(
    primary: Dict[str, object], shadow: Dict[str, object], what: str
) -> None:
    """Raise :class:`SanitizerViolation` naming every diverging key."""
    diffs = [
        f"  {key}: primary={primary[key]!r} shadow={shadow[key]!r}"
        for key in primary
        if primary[key] != shadow.get(key)
    ]
    if diffs:
        raise SanitizerViolation(
            f"{what}: shadow execution diverged from primary on "
            f"{len(diffs)} observable(s):\n" + "\n".join(diffs)
        )
