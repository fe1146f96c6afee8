"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Print a grid configuration's dataset statistics (the Section 6 closed
    forms: T, c_R, c_S, n_e, N_C, E_C, a, b, edge ratio).
``explain``
    Render the plan tree without executing: both cost models laid out
    operator by operator (the rows ``run --analyze`` later annotates),
    the Query Planning Service's chosen QES, the crossover point and the
    config fingerprint (``--json`` for the machine-readable form).
``run``
    Execute both QES algorithms on the simulated cluster (model-only) and
    report simulated times next to the predictions.  ``--analyze``
    additionally profiles the same executions operator by operator —
    predicted vs. observed time, bytes and records per model term, the
    planner's counterfactual and its regret — and appends per-term drift
    records to the drift store.
``drift``
    Report accumulated cost-model drift from the store: per (algorithm,
    term) observed/predicted ratios, flagging terms beyond a threshold.
``serve``
    Run the multi-tenant query server: a seeded arrival stream (JSON
    tenant-mix spec or a built-in default) planned per query, admitted
    through a bounded slot pool (``--policy fifo|spf|fair``) and executed
    concurrently over per-compute-node shared caches.  ``--baseline``
    adds the serial cold-cache comparison; ``--sanitize`` re-serves with
    the engine tie-break reversed and demands an identical semantic
    digest.  ``--observe`` records the passive observability layer
    (windowed time-series, ops log, SLO burn-rate alerts) into the
    report; ``--oplog-out`` writes the structured ops log as JSONL.
``top``
    Render the SLO dashboard from a served report: per-tenant latency
    percentiles, queue/utilisation/hit-rate sparkline timelines, error
    budgets, burn-rate alert history, the ops-log event histogram and
    the cache-reuse panel (working set and what-if miss-ratio curve)
    when the report carries one (``--json`` for the machine-readable
    panels).
``sweep``
    Regenerate one of the paper's figure sweeps at a chosen scale
    (``ne-cs``, ``compute-nodes``, ``tuples``, ``attributes``, ``cpu``,
    ``nfs``).
``trace``
    Execute both QES with causal span telemetry, write Chrome trace-event
    JSON (loadable in Perfetto / ``chrome://tracing``) and print the
    critical-path and per-resource utilisation summaries.

Each command registers exactly the flags its handler reads, and argparse
refuses the rest (exit 2).  ``--grid/--p/--q`` (comma-separated sizes):
``info``, ``explain``, ``run``, ``trace``, ``serve``.
``--storage/--compute/--cpu-factor`` (the deployment shape):
``explain``, ``run``, ``trace``, ``serve``, and each ``sweep`` axis for
the ones its figure takes (``nfs`` fixes its own deployment and takes
none; ``compute-nodes`` sweeps ``--compute`` itself).  ``--nfs``:
``explain``, ``run``, ``trace``.
``--pipeline``: those three and ``sweep``.  ``--faults/--replication``:
``run``, ``trace``, ``serve``.  ``--sanitize`` (the runtime simulation
sanitizer — invariant hooks plus a nondeterminism-detecting shadow run
per QES; a violation exits with status 4): ``run``, ``sweep``, ``trace``,
``serve``.  ``--trace-out FILE`` (record telemetry and export one Chrome
trace per QES execution, ``FILE`` with ``.ij``/``.gh`` tags before the
extension): ``run`` and ``sweep``; ``trace`` always records and writes to
its own ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence, Tuple

from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.core.cost_models import CostParameters
from repro.observe import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftStore,
    explain_plan,
    profile_execution,
    render_drift_report,
    render_explanation,
    summarize_drift,
)
from repro.experiments.figures import (
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
)
from repro.analysis.sanitizer import SanitizerViolation
from repro.experiments.runner import run_point
from repro.faults import UnrecoverableFault
from repro.workloads.generator import GridSpec

__all__ = ["main"]


def _dims(text: str) -> Tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not dims or any(d <= 0 for d in dims):
        raise argparse.ArgumentTypeError(f"sizes must be positive: {text!r}")
    return dims


def _count(text: str) -> int:
    """A positive int: how many rows, segments or columns to show."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _margin(text: str) -> float:
    """A finite float >= 0: how far a ratio may stray from 1 unflagged."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0: {text!r}")
    return value


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=_dims, default=(64, 64, 64),
                   help="grid size per dimension (default 64,64,64)")
    p.add_argument("--p", dest="p", type=_dims, default=(16, 16, 16),
                   help="left-table partition sizes (default 16,16,16)")
    p.add_argument("--q", dest="q", type=_dims, default=(16, 16, 16),
                   help="right-table partition sizes (default 16,16,16)")


#: the deployment flags by name.  Each subcommand registers exactly the
#: ones its handler reads (:func:`_add_flags`), so argparse refuses the
#: rest with exit 2 instead of accepting a flag nothing will look at.
_FLAGS = {
    "storage": dict(type=int, default=5, help="storage nodes (default 5)"),
    "compute": dict(type=int, default=5, help="compute nodes (default 5)"),
    "nfs": dict(action="store_true",
                help="shared-NFS deployment (single server, diskless compute)"),
    "cpu-factor": dict(type=float, default=1.0,
                       help="computing-power factor F (default 1.0)"),
    "pipeline": dict(action=argparse.BooleanOptionalAction, default=False,
                     help="overlap Indexed Join transfers with build/probe work "
                          "(prefetch pipeline; default off — the paper's QES is "
                          "synchronous)"),
    "faults": dict(type=str, default=None, metavar="SPEC",
                   help="inject a deterministic fault plan, e.g. "
                        "'seed=7,storage_crash=0.5,transient=0.01' "
                        "(see FaultPlan.parse for the full grammar)"),
    "replication": dict(type=int, default=1, metavar="K",
                        help="write each chunk to K storage nodes so reads can "
                             "fail over (default 1 — no replication)"),
    "sanitize": dict(action="store_true",
                     help="run under the simulation sanitizer: invariant hooks "
                          "(clock, cache accounting, byte conservation, no "
                          "stranded processes, telemetry consistency) plus a "
                          "shadow execution per QES that detects "
                          "same-timestamp nondeterminism"),
    "trace-out": dict(type=str, default=None, metavar="FILE",
                      help="record causal span telemetry and write one Chrome "
                           "trace-event JSON per QES execution (FILE gets "
                           ".ij/.gh tags before its extension)"),
}
_CLUSTER_FLAGS = ("storage", "compute", "cpu-factor")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _machine(args: argparse.Namespace) -> MachineSpec:
    return PAPER_MACHINE.with_cpu_factor(args.cpu_factor)


def _store_path(args: argparse.Namespace) -> Optional[str]:
    return None if args.drift_store in (None, "none") else args.drift_store


def _view_params(args: argparse.Namespace) -> CostParameters:
    """Table 1 for the CLI's synthetic two-table view of a grid spec."""
    spec = _spec(args)
    rs = 4 * (spec.ndim + 1)
    return CostParameters.from_machine(
        _machine(args),
        T=spec.T, c_R=spec.c_R, c_S=spec.c_S, n_e=spec.n_e,
        RS_R=rs, RS_S=rs,
        n_s=1 if args.nfs else args.storage, n_j=args.compute,
        shared_nfs=args.nfs,
    )


def _spec(args: argparse.Namespace) -> GridSpec:
    return GridSpec(g=args.grid, p=args.p, q=args.q)


def _table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _trace_path(base: str, tag: str) -> str:
    """``run.json`` + ``ij`` -> ``run.ij.json`` (tag before the extension)."""
    if base.endswith(".json"):
        return f"{base[:-5]}.{tag}.json"
    return f"{base}.{tag}.json"


def _export_traces(base: str, *reports) -> None:
    """Write one Chrome trace per (tag, report) pair and say where."""
    from repro.telemetry.export import write_chrome_trace

    for tag, report in reports:
        path = _trace_path(base, tag)
        write_chrome_trace(report.telemetry, path)
        print(f"trace ({tag}): {path}")


# -- commands ---------------------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    spec = _spec(args)
    print(spec.describe())
    print(f"left sub-tables (m_R): {spec.m_R:,}   right sub-tables (m_S): {spec.m_S:,}")
    print(f"avg right-sub-table degree (n_e/m_S): {spec.n_e / spec.m_S:g}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    spec = _spec(args)
    info = explain_plan(_view_params(args), pipelined=args.pipeline)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(spec.describe())
    print(render_explanation(info))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace_out:
        _claim_outputs(*(_trace_path(args.trace_out, tag) for tag in ("ij", "gh")))
    if args.analyze:
        _claim_outputs(args.analyze_json)
        if args.drift_store != "none":
            # appended to, never truncated
            _claim_outputs(str(DriftStore(_store_path(args)).path), mode="a")
    spec = _spec(args)
    machine = _machine(args)
    result = run_point(
        spec,
        n_s=1 if args.nfs else args.storage,
        n_j=args.compute,
        machine=machine,
        shared_nfs=args.nfs,
        pipeline=args.pipeline,
        faults=args.faults,
        replication=args.replication,
        sanitize=args.sanitize,
        telemetry=args.trace_out is not None or args.analyze,
    )
    ij_name = "indexed-join (pipe)" if args.pipeline else "indexed-join"
    print(spec.describe())
    print(_table(
        ["QES", "simulated (s)", "model (s)", "error"],
        [
            [ij_name, f"{result.ij_sim:.3f}", f"{result.ij_pred:.3f}",
             f"{result.ij_error:.1%}"],
            ["grace-hash", f"{result.gh_sim:.3f}", f"{result.gh_pred:.3f}",
             f"{result.gh_error:.1%}"],
        ],
    ))
    print(f"simulated winner: {result.sim_winner}   model pick: {result.model_winner}")
    if args.pipeline:
        print(f"IJ transfer overlap: {result.ij_report.overlap_ratio:.0%} "
              f"(stall {result.ij_report.stall_time:.3f}s)")
    if args.faults:
        for name, rep in (("IJ", result.ij_report), ("GH", result.gh_report)):
            rec = rep.recovery
            print(f"{name} recovery: {rec.retries} retries, {rec.failovers} "
                  f"failovers, {rec.reassigned_pairs} pairs reassigned, "
                  f"{rec.restarted_chunks} chunks restarted, wasted "
                  f"{rec.wasted_seconds:.3f}s / {rec.wasted_bytes:,} B")
    if args.sanitize:
        print("sanitizer: all invariant hooks and shadow comparisons passed")
    if args.trace_out:
        _export_traces(
            args.trace_out, ("ij", result.ij_report), ("gh", result.gh_report)
        )
        for name, rep in (("IJ", result.ij_report), ("GH", result.gh_report)):
            print(f"{name} {rep.critical_path.summary_lines(3)[0]}")
    if args.analyze:
        # Both profiles come from the single traced execution above —
        # --analyze never re-runs the workload.
        profiles = [
            profile_execution(
                result.params, result.ij_report, pipelined=args.pipeline
            ),
            profile_execution(result.params, result.gh_report),
        ]
        for prof in profiles:
            print()
            print(prof.render())
        store_path = _store_path(args)
        if args.drift_store != "none":
            store = DriftStore(store_path)
            added = store.append(
                [rec for prof in profiles for rec in prof.drift_records()]
            )
            print(f"\ndrift store: {store.path} (+{added} records)")
        if args.analyze_json:
            payload = {prof.algorithm: prof.to_dict() for prof in profiles}
            with open(args.analyze_json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"analysis json: {args.analyze_json}")
    return 0


_DEFAULT_TENANTS = (
    {"name": "interactive", "rate": 2.0, "num_queries": 8,
     "mix": {"scan": 2.0, "join": 1.0}},
    {"name": "batch", "rate": 0.5, "num_queries": 4, "process": "bursty",
     "mix": {"aggregate": 2.0, "join": 1.0}},
)


def _load_tenants(path: Optional[str]):
    """Tenant specs from a JSON file, or the built-in two-tenant mix.

    The file holds either a list of tenant objects or ``{"tenants":
    [...]}``; each object is a :meth:`TenantSpec.from_dict` mapping.  Whatever
    is wrong with the file is a ``ValueError`` naming it and the tenant.
    """
    from repro.workloads.arrivals import TenantSpec

    if path is None:
        data = list(_DEFAULT_TENANTS)
    else:
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{path}: not JSON: {exc}") from None
        if isinstance(data, dict):
            data = data.get("tenants")
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: holds no tenants")
    tenants = []
    for i, d in enumerate(data):
        try:
            tenants.append(TenantSpec.from_dict(d))
        except KeyError as exc:
            raise ValueError(f"{path}: tenant #{i}: no {exc} key") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: tenant #{i}: {exc}") from None
    return tenants


def _observability_config(args: argparse.Namespace, tenants) -> Optional[object]:
    """Build the serve observability config, or ``None`` when not asked.

    SLO objectives come straight from the tenant-mix spec (each tenant's
    ``"slo"`` object); a tenant without one simply gets no error-budget
    tracking, while time-series and the ops log cover every tenant.
    """
    if not args.observe:
        return None
    from repro.server import ObservabilityConfig, SLOObjective

    slo = {}
    for t in tenants:
        if t.slo_availability is None and t.slo_latency is None:
            continue
        kwargs = {"latency_target": t.slo_latency}
        if t.slo_availability is not None:
            kwargs["availability"] = t.slo_availability
        slo[t.name] = SLOObjective(**kwargs)
    return ObservabilityConfig(
        window=ObservabilityConfig.window if args.obs_window is None else args.obs_window,
        slo=slo,
        reuse=not args.no_reuse,
    )


def _open_output(path: str, mode: str = "w"):
    """Open an output file, creating its parent directories like
    ``--trace-out`` does; a path that cannot be opened is a
    ``ValueError`` naming it."""
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None


def _claim_outputs(*paths: Optional[str], mode: str = "w") -> None:
    """Open every output a command will write before it does any work: a
    run must not simulate to its end and then have nowhere to write.
    ``None`` entries (outputs not asked for) are skipped."""
    for path in filter(None, paths):
        _open_output(path, mode).close()


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.server import QueryServer, ResilienceConfig, RetryPolicy, \
        check_shadow_serve, run_serial_baseline
    from repro.workloads.arrivals import generate_workload
    from repro.workloads.oilres import build_oil_reservoir_dataset

    if not args.observe:
        # the ops log, the window and the reuse analysis are the
        # observatory's; refuse them before serving anything
        for flag, given in (("--oplog-out", args.oplog_out),
                            ("--obs-window", args.obs_window is not None),
                            ("--no-reuse", args.no_reuse)):
            if given:
                raise ValueError(f"{flag} needs --observe")
    _claim_outputs(args.oplog_out, args.json_out)
    spec = _spec(args)
    machine = _machine(args)
    tenants = _load_tenants(args.tenants)
    if args.deadline is not None:
        # a blanket SLO for tenants whose spec does not set its own
        tenants = [
            t if t.deadline is not None
            else dataclasses.replace(t, deadline=args.deadline)
            for t in tenants
        ]
    arrivals = generate_workload(tenants, seed=args.seed)
    resilience = ResilienceConfig(
        retry=RetryPolicy(budget=args.retry_budget),
        queue_limit=args.queue_limit,
        shed_policy=args.shed_policy,
        on_unrecoverable="raise" if args.fail_mode == "strict" else "fail",
    )

    observe = _observability_config(args, tenants)

    def build_server(tie_break: str, observed: bool = False) -> QueryServer:
        dataset = build_oil_reservoir_dataset(
            spec, num_storage=args.storage, functional=args.functional,
            seed=args.seed, replication=args.replication,
        )
        return QueryServer(
            dataset,
            num_compute=args.compute,
            machine=machine,
            policy=args.policy,
            slots=args.slots,
            cache_policy=args.cache_policy,
            sanitize=args.sanitize,
            tie_break=tie_break,
            faults=args.faults,
            resilience=resilience,
            observe=observe if observed and observe is not None else False,
        )

    server = build_server("fifo", observed=True)
    report = server.serve(arrivals)
    shadow = args.sanitize and check_shadow_serve(server, report, arrivals, build_server)

    print(spec.describe())
    print(f"policy: {report.policy}   slots: {report.slots}   "
          f"queries: {len(report.records)}   makespan: {report.makespan:.3f}s")
    print(f"shared cache: {report.cache_hits:,} hits / "
          f"{report.cache_misses:,} misses "
          f"(hit rate {report.cache_hit_rate:.1%}); "
          f"{report.bytes_from_storage:,} B from storage")
    counts = report.disposition_counts
    print(f"dispositions: {counts['completed']} completed / "
          f"{counts['deadline_exceeded']} deadline_exceeded / "
          f"{counts['shed']} shed / {counts['failed']} failed; "
          f"goodput {report.goodput:.2f} q/s")
    rows = [
        [
            tenant,
            int(stats["count"]),
            f"{stats['mean']:.3f}",
            f"{stats['p50']:.3f}",
            f"{stats['p99']:.3f}",
            f"{report.tenant_queue_wait[tenant]['max']:.3f}",
        ]
        for tenant, stats in report.tenant_latency.items()
    ]
    print(_table(
        ["tenant", "queries", "mean (s)", "p50 (s)", "p99 (s)", "max wait (s)"],
        rows,
    ))
    if args.baseline:
        dataset = build_oil_reservoir_dataset(
            spec, num_storage=args.storage, functional=args.functional,
            seed=args.seed,
        )
        base = run_serial_baseline(
            dataset, arrivals, num_compute=args.compute, machine=machine,
            cache_policy=args.cache_policy,
        )
        print(f"serial cold-cache baseline: hit rate "
              f"{base.cache_hit_rate:.1%} "
              f"({base.cache_hits:,}/{base.cache_hits + base.cache_misses:,}), "
              f"{base.bytes_from_storage:,} B from storage, "
              f"{base.total_exec_time:.3f}s summed execution")
    print(f"digest: {report.digest()}")
    if shadow == "reversed":
        print("sanitizer: invariant hooks and reversed-tie-break shadow "
              "serve passed")
    elif shadow == "replay":
        print("sanitizer: invariant hooks and byte-identical faulted "
              "replay passed")
    if report.observability is not None:
        obs = report.observability
        alerts = obs.get("alerts", [])
        oplog_summary = obs.get("oplog", {})
        print(f"observability: {oplog_summary.get('records', 0)} oplog "
              f"events, {len(alerts)} burn-rate alert(s)")
        reuse = obs.get("reuse")
        if reuse is not None:
            trace = reuse["trace"]
            print(f"reuse: {trace['accesses']} accesses over "
                  f"{trace['distinct_keys']} keys "
                  f"({trace['hits']} hits / {trace['misses']} misses) "
                  f"— run `repro top` on the report")
        for alert in alerts:
            cleared = (
                f"cleared at {alert['cleared_at']:.4f}s"
                if alert.get("cleared_at") is not None else "still firing"
            )
            print(f"  alert[{alert['tenant']}]: fired at "
                  f"{alert['fired_at']:.4f}s "
                  f"(burn {alert['short_burn']:.2f}/{alert['long_burn']:.2f} "
                  f"vs threshold {alert['threshold']:.2f}), {cleared}")
    if args.oplog_out:
        server.observatory.oplog.write(args.oplog_out)
        print(f"oplog jsonl: {args.oplog_out}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report json: {args.json_out}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.server.dashboard import (
        build_dashboard,
        load_oplog,
        load_report,
        render_dashboard,
    )

    payload = load_report(args.report)
    oplog = load_oplog(args.oplog) if args.oplog else None
    dash = build_dashboard(payload, oplog)
    if args.json:
        print(json.dumps(dash, indent=2, sort_keys=True))
    else:
        print(render_dashboard(dash, width=args.width), end="")
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    store = DriftStore(args.store)
    records = store.load()
    if not records:
        print(
            f"drift store {store.path} is empty; run `repro run --analyze` "
            f"first",
            file=sys.stderr,
        )
        return 2
    summaries = summarize_drift(records)
    if args.json:
        payload = {
            "records": len(records),
            "threshold": args.threshold,
            "terms": [
                {**s.to_dict(), "flagged": s.flagged(args.threshold)}
                for s in summaries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_drift_report(summaries, threshold=args.threshold))
    if args.check and any(s.flagged(args.threshold) for s in summaries):
        return 1
    return 0


#: deployment argument of a figure → (the flag that sets it, how to read it)
_SWEEP_DEPLOYMENT = {
    "n_s": ("storage", lambda args: args.storage),
    "n_j": ("compute", lambda args: args.compute),
    "machine": ("cpu-factor", _machine),
}

#: sweep axis → (figure, the deployment arguments it takes, headers of the
#: axis column and of what follows the two time columns, those cells)
_SWEEPS = {
    "ne-cs": (run_figure4, ("n_s", "n_j", "machine"), ("n_e*c_S", "winner"),
              lambda x, r: (f"{x:,}", r.sim_winner)),
    "compute-nodes": (run_figure5, ("n_s", "machine"), ("n_j", "gap"),
                      lambda x, r: (x, f"{r.gh_sim - r.ij_sim:.2f}")),
    "tuples": (functools.partial(run_figure6, factors=(1, 4, 16, 64)),
               ("n_s", "n_j", "machine"), ("T",), lambda x, r: (f"{x:,}",)),
    "attributes": (run_figure7, ("n_s", "n_j", "machine"), ("attrs",),
                   lambda x, r: (x,)),
    "cpu": (run_figure8, ("n_s", "n_j", "machine"), ("F", "winner"),
            lambda x, r: (x, r.sim_winner)),
    "nfs": (run_figure9, (), ("n_j", "GH/IJ"),
            lambda x, r: (x, f"{r.gh_sim / r.ij_sim:.1f}x")),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    figure, takes, (x_header, *more_headers), cells = _SWEEPS[args.axis]
    traced = args.trace_out is not None
    if traced:
        # the file names depend on how many points the figure has; the
        # first point's are written whatever the count, so opening them
        # checks the directory every other one lands in
        _claim_outputs(*(_trace_path(args.trace_out, f"p0.{tag}") for tag in ("ij", "gh")))
    results = figure(
        **{name: _SWEEP_DEPLOYMENT[name][1](args) for name in takes},
        pipeline=args.pipeline, sanitize=args.sanitize, telemetry=traced,
    )
    rows = []
    for x, r in results:
        first, *more = cells(x, r)
        rows.append([first, f"{r.ij_sim:.2f}", f"{r.gh_sim:.2f}", *more])
    print(_table([x_header, "IJ (s)", "GH (s)", *more_headers], rows))
    if traced:
        for i, (_, point) in enumerate(results):
            _export_traces(
                args.trace_out,
                (f"p{i}.ij", point.ij_report),
                (f"p{i}.gh", point.gh_report),
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.export import resource_summary, text_dump

    _claim_outputs(*(_trace_path(args.out, tag) for tag in ("ij", "gh")))
    spec = _spec(args)
    machine = _machine(args)
    result = run_point(
        spec,
        n_s=1 if args.nfs else args.storage,
        n_j=args.compute,
        machine=machine,
        shared_nfs=args.nfs,
        pipeline=args.pipeline,
        faults=args.faults,
        replication=args.replication,
        sanitize=args.sanitize,
        telemetry=True,
    )
    print(spec.describe())
    _export_traces(
        args.out, ("ij", result.ij_report), ("gh", result.gh_report)
    )
    for name, rep in (("indexed-join", result.ij_report),
                      ("grace-hash", result.gh_report)):
        print(f"\n{name}: {rep.total_time:.3f}s simulated")
        for line in rep.critical_path.summary_lines(args.top):
            print(f"  {line}")
        print("  " + "\n  ".join(resource_summary(rep.telemetry).splitlines()))
        if args.dump:
            print(text_dump(rep.telemetry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Object-relational views of scientific datasets "
                    "(Narayanan et al., ICPP 2006) — planner, simulator and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="dataset statistics for a grid configuration")
    _add_spec_args(p_info)
    p_info.set_defaults(fn=_cmd_info)

    p_explain = sub.add_parser(
        "explain",
        help="render the plan tree (both models, operator by operator) "
             "without executing",
    )
    _add_spec_args(p_explain)
    _add_flags(p_explain, *_CLUSTER_FLAGS, "nfs", "pipeline")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the machine-readable explanation "
                                "(sorted keys) instead of the tree")
    p_explain.set_defaults(fn=_cmd_explain)

    p_run = sub.add_parser("run", help="execute both QES on the simulated cluster")
    _add_spec_args(p_run)
    _add_flags(p_run, *_CLUSTER_FLAGS, "nfs", "pipeline", "faults",
               "replication", "sanitize", "trace-out")
    p_run.add_argument("--analyze", action="store_true",
                       help="profile the executions operator by operator "
                            "(predicted vs. observed per model term), report "
                            "planner regret, and append drift records to the "
                            "drift store")
    p_run.add_argument("--analyze-json", type=str, default=None, metavar="FILE",
                       help="also write the --analyze profiles as sorted-key "
                            "JSON to FILE")
    p_run.add_argument("--drift-store", type=str, default=None, metavar="FILE",
                       help="drift-record store --analyze appends to (default "
                            "benchmarks/results/DRIFT.jsonl; 'none' disables "
                            "appending)")
    p_run.set_defaults(fn=_cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="serve a seeded multi-tenant query stream concurrently on "
             "one shared cluster",
    )
    _add_spec_args(p_serve)
    _add_flags(p_serve, *_CLUSTER_FLAGS)
    p_serve.add_argument("--seed", type=int, default=0,
                         help="workload seed (default 0); the whole served "
                              "stream is a pure function of (tenants, seed)")
    p_serve.add_argument("--tenants", type=str, default=None, metavar="FILE",
                         help="JSON tenant-mix spec (list of tenant objects "
                              "or {'tenants': [...]}); default: a built-in "
                              "interactive + bursty-batch pair")
    p_serve.add_argument("--policy", choices=["fifo", "spf", "fair"],
                         default="fifo",
                         help="admission policy (default fifo)")
    p_serve.add_argument("--slots", type=int, default=2,
                         help="concurrent execution slots (default 2)")
    p_serve.add_argument("--cache-policy", type=str, default="lru",
                         help="shared-cache eviction policy (default lru; "
                              "belady is rejected — it needs one query's "
                              "future, which a shared cache does not have)")
    p_serve.add_argument("--functional", action="store_true",
                         help="execute record-level (real answers) instead "
                              "of model-only")
    p_serve.add_argument("--baseline", action="store_true",
                         help="also run every query standalone on cold "
                              "caches and report the hit-rate gap")
    p_serve.add_argument("--sanitize", action="store_true",
                         help="run under the simulation sanitizer and "
                              "re-serve with the engine's same-instant "
                              "tie-break reversed; a semantic digest "
                              "mismatch exits 4 (with faults, deadlines, "
                              "a non-fifo policy or shedding the shadow "
                              "is a byte-identical replay "
                              "instead)")
    p_serve.add_argument("--json-out", type=str, default=None, metavar="FILE",
                         help="write the full deterministic report payload "
                              "as sorted-key JSON")
    p_serve.add_argument("--faults", type=str, default=None, metavar="SPEC",
                         help="inject a deterministic fault plan while "
                              "serving, e.g. 'seed=7,storage_crash=0.5' "
                              "(see FaultPlan.parse for the grammar)")
    p_serve.add_argument("--replication", type=int, default=1, metavar="K",
                         help="write each chunk to K storage nodes so "
                              "serving can fail reads over (default 1)")
    p_serve.add_argument("--deadline", type=float, default=None, metavar="S",
                         help="per-query SLO in simulated seconds applied "
                              "to every tenant whose spec sets none; an "
                              "expired query is unwound and recorded "
                              "deadline_exceeded")
    p_serve.add_argument("--retry-budget", type=int, default=2, metavar="N",
                         help="server-level re-executions allowed per "
                              "fault-killed query (default 2), with seeded "
                              "exponential backoff between attempts")
    p_serve.add_argument("--queue-limit", type=int, default=None, metavar="N",
                         help="bound the admission queue at N waiters and "
                              "shed on overflow (default unbounded)")
    p_serve.add_argument("--shed-policy", default="reject-newest",
                         choices=["reject-newest", "reject-lowest-priority",
                                  "token-bucket"],
                         help="load-shedding policy once the queue limit "
                              "is hit (default reject-newest)")
    p_serve.add_argument("--fail-mode", choices=["strict", "graceful"],
                         default="strict",
                         help="strict (default): a query exhausting its "
                              "retry budget on an unrecoverable fault "
                              "aborts the run with a structured error "
                              "(exit 3); graceful: record it as failed "
                              "and keep serving")
    p_serve.add_argument("--observe", action="store_true",
                         help="record the passive observability layer "
                              "(windowed time-series, structured ops log, "
                              "per-tenant SLO error budgets and burn-rate "
                              "alerts); lands in the report payload under "
                              "'observability' and never perturbs the "
                              "serve (digest-identical by construction)")
    p_serve.add_argument("--obs-window", type=float, default=None, metavar="S",
                         help="time-series aggregation window in simulated "
                              "seconds (default 1.0; requires --observe)")
    p_serve.add_argument("--oplog-out", type=str, default=None, metavar="FILE",
                         help="write the structured ops log as JSONL "
                              "(one lifecycle decision per line; "
                              "requires --observe)")
    p_serve.add_argument("--no-reuse", action="store_true",
                         help="requires --observe; skip the reuse analysis "
                              "(what-if miss-ratio curves and working set)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="render the SLO dashboard from a served report "
             "(and optionally its ops log)",
    )
    p_top.add_argument("report", metavar="REPORT.json",
                       help="report payload from `repro serve --json-out`")
    p_top.add_argument("--oplog", type=str, default=None, metavar="FILE",
                       help="ops-log JSONL from `repro serve --oplog-out` "
                            "(refines the event histogram panel)")
    p_top.add_argument("--json", action="store_true",
                       help="emit the dashboard panels as sorted-key JSON "
                            "instead of text")
    p_top.add_argument("--width", type=_count, default=60, metavar="COLS",
                       help="sparkline width in columns (default 60)")
    p_top.set_defaults(fn=_cmd_top)

    p_sweep = sub.add_parser("sweep", help="regenerate one of the paper's sweeps")
    axes = p_sweep.add_subparsers(dest="axis", required=True)
    for axis, (_, takes, *_) in _SWEEPS.items():
        # an axis takes the deployment flags its figure does, no others
        p_axis = axes.add_parser(axis)
        _add_flags(p_axis, *(_SWEEP_DEPLOYMENT[name][0] for name in takes),
                   "pipeline", "sanitize", "trace-out")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_trace = sub.add_parser(
        "trace",
        help="execute both QES with span telemetry and export Chrome traces",
    )
    _add_spec_args(p_trace)
    _add_flags(p_trace, *_CLUSTER_FLAGS, "nfs", "pipeline", "faults",
               "replication", "sanitize")
    p_trace.add_argument("--out", type=str, default="run.json", metavar="FILE",
                         help="Chrome trace-event output base name (default "
                              "run.json; written as run.ij.json / run.gh.json)")
    p_trace.add_argument("--top", type=_count, default=5, metavar="K",
                         help="critical-path segments to list (default 5)")
    p_trace.add_argument("--dump", action="store_true",
                         help="also print the deterministic text dump of the "
                              "span tree and metrics")
    p_trace.set_defaults(fn=_cmd_trace)

    p_drift = sub.add_parser(
        "drift",
        help="report accumulated cost-model drift from the store",
    )
    p_drift.add_argument("--store", type=str, default=None, metavar="FILE",
                         help="drift store to read (default benchmarks/"
                              "results/DRIFT.jsonl)")
    p_drift.add_argument("--threshold", type=_margin,
                         default=DEFAULT_DRIFT_THRESHOLD, metavar="X",
                         help="flag terms whose observed/predicted ratio (or "
                              "its inverse) exceeds 1+X (default "
                              f"{DEFAULT_DRIFT_THRESHOLD})")
    p_drift.add_argument("--check", action="store_true",
                         help="exit 1 if any term is flagged (for CI)")
    p_drift.add_argument("--json", action="store_true",
                         help="emit the report as sorted-key JSON")
    p_drift.set_defaults(fn=_cmd_drift)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnrecoverableFault as exc:
        print(f"unrecoverable fault: {exc}", file=sys.stderr)
        return 3
    except SanitizerViolation as exc:
        print(f"sanitizer violation: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a file named on the command line that cannot be opened, or a
        # stream that closed under us (``repro trace ... | head -1``)
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
