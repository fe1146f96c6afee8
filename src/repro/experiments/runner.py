"""Single-configuration experiment runner.

:func:`run_point` is the unit every sweep is made of: build the two-table
dataset for a :class:`~repro.workloads.generator.GridSpec` (functionally or
model-only), execute **both** QES algorithms on a fresh simulated cluster,
and pair the simulated times with the analytic predictions in a
:class:`PointResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.cluster.cluster import nfs_cluster, paper_cluster
from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.faults.plan import FaultPlan
from repro.core.cost_models import (
    CostParameters,
    grace_hash_cost,
    indexed_join_cost,
)
from repro.joins.grace_hash import GraceHashQES
from repro.joins.indexed_join import IndexedJoinQES
from repro.joins.report import ExecutionReport
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset

__all__ = ["PointResult", "run_point"]


@dataclass
class PointResult:
    """Both algorithms, simulated and predicted, at one sweep point."""

    spec: GridSpec
    params: CostParameters
    ij_sim: float
    gh_sim: float
    ij_report: ExecutionReport
    gh_report: ExecutionReport
    #: Whether the Indexed Join ran (and is predicted) in pipelined mode.
    pipelined: bool = False

    @property
    def ij_pred(self) -> float:
        return indexed_join_cost(self.params, pipelined=self.pipelined).total

    @property
    def gh_pred(self) -> float:
        return grace_hash_cost(self.params).total

    @property
    def sim_winner(self) -> str:
        return "IJ" if self.ij_sim <= self.gh_sim else "GH"

    @property
    def model_winner(self) -> str:
        return "IJ" if self.ij_pred <= self.gh_pred else "GH"

    @property
    def ij_error(self) -> float:
        """Relative |simulated − predicted| for the Indexed Join."""
        return abs(self.ij_sim - self.ij_pred) / self.ij_pred

    @property
    def gh_error(self) -> float:
        """Relative |simulated − predicted| for Grace Hash."""
        return abs(self.gh_sim - self.gh_pred) / self.gh_pred


def run_point(
    spec: GridSpec,
    n_s: int,
    n_j: int,
    machine: MachineSpec = PAPER_MACHINE,
    shared_nfs: bool = False,
    functional: bool = False,
    extra_attributes: int = 0,
    pipeline: bool = False,
    faults: Optional[Union[FaultPlan, str]] = None,
    replication: int = 1,
    sanitize: bool = False,
    telemetry: bool = False,
) -> PointResult:
    """Execute IJ and GH for one configuration and collect predictions.

    ``pipeline`` runs (and predicts) the Indexed Join in its overlapped
    prefetching mode; Grace Hash is always synchronous.

    ``faults`` injects a deterministic :class:`~repro.faults.FaultPlan`
    (or its ``FaultPlan.parse`` spec string) into both clusters;
    ``replication`` writes each chunk to that many storage nodes so reads
    can fail over.  The analytic predictions stay fault-free — the gap
    between prediction and simulation under faults *is* the recovery
    overhead the ablation plots.

    ``sanitize`` runs each QES under the runtime sanitizer's invariant
    hooks (see :mod:`repro.analysis.sanitizer`) and then *shadow-executes*
    the identical workload to detect same-timestamp nondeterminism.
    Fault-free configurations shadow with the engine's equal-time
    tie-break reversed and compare the tie-break-invariant observables;
    fault plans (whose counter-based draws are trace-order-dependent by
    design) shadow in canonical order and require the full report to
    replay bit-for-bit.  Any divergence or invariant breach raises
    :class:`~repro.analysis.sanitizer.SanitizerViolation`.  The reports
    returned are the primary (hook-instrumented) runs, which produce
    byte-identical observables to un-sanitized runs.

    ``telemetry`` records the causal span DAG and run metrics on each
    primary execution (see :mod:`repro.telemetry`); the reports then
    carry ``critical_path`` and ``telemetry`` for the exporters.  Shadow
    executions stay untraced — telemetry is observation-only, so primary
    and shadow observables still compare equal.
    """
    ds = build_oil_reservoir_dataset(
        spec, num_storage=n_s, functional=functional,
        extra_attributes=extra_attributes, replication=replication,
    )
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    params = CostParameters.from_machine(
        machine,
        T=spec.T, c_R=spec.c_R, c_S=spec.c_S, n_e=spec.n_e,
        RS_R=ds.metadata.table("T1").schema.record_size,
        RS_S=ds.metadata.table("T2").schema.record_size,
        n_s=n_s, n_j=n_j, shared_nfs=shared_nfs,
    )

    def cluster(tie_break: str = "fifo", traced: bool = False):
        if shared_nfs:
            return nfs_cluster(
                n_j, spec=machine, faults=faults, tie_break=tie_break,
                telemetry=traced,
            )
        return paper_cluster(
            n_s, n_j, spec=machine, faults=faults, tie_break=tie_break,
            telemetry=traced,
        )

    def run_ij(
        tie_break: str = "fifo", sanitizer=None, traced: bool = False
    ) -> ExecutionReport:
        return IndexedJoinQES(
            cluster(tie_break, traced), ds.metadata, "T1", "T2", ds.join_attrs,
            ds.provider, pipeline=pipeline, sanitizer=sanitizer,
        ).run()

    def run_gh(
        tie_break: str = "fifo", sanitizer=None, traced: bool = False
    ) -> ExecutionReport:
        return GraceHashQES(
            cluster(tie_break, traced), ds.metadata, "T1", "T2", ds.join_attrs,
            ds.provider, sanitizer=sanitizer,
        ).run()

    if sanitize:
        from repro.analysis.sanitizer import (
            RunSanitizer,
            compare_digests,
            full_digest,
            semantic_digest,
        )

        faulty = faults is not None and not faults.is_trivial
        reports = []
        for name, execute in (("indexed-join", run_ij), ("grace-hash", run_gh)):
            primary = execute(
                sanitizer=RunSanitizer(label=name), traced=telemetry
            )
            if faulty:
                shadow = execute()
                compare_digests(
                    full_digest(primary),
                    full_digest(shadow),
                    f"{name} canonical-order replay",
                )
            else:
                shadow = execute(tie_break="reversed")
                compare_digests(
                    semantic_digest(primary),
                    semantic_digest(shadow),
                    f"{name} reversed-tie shadow",
                )
            reports.append(primary)
        ij_report, gh_report = reports
    else:
        ij_report = run_ij(traced=telemetry)
        gh_report = run_gh(traced=telemetry)
    return PointResult(
        spec=spec,
        params=params,
        ij_sim=ij_report.total_time,
        gh_sim=gh_report.total_time,
        ij_report=ij_report,
        gh_report=gh_report,
        pipelined=pipeline,
    )
