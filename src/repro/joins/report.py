"""Execution reports: what a QES run tells you about itself.

A report carries the *simulated* wall-clock (the quantity the paper's
figures plot), a per-phase breakdown mirroring the cost-model terms
(transfer / bucket write / bucket read / CPU), functional results when the
run materialised data, and the raw counters (bytes, operations, cache
statistics) used by tests and the model-validation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.datamodel.subtable import SubTable
from repro.joins.hash_join import JoinKernelStats
from repro.services.cache import CacheStats

__all__ = ["PhaseBreakdown", "RecoveryStats", "ExecutionReport"]


@dataclass
class RecoveryStats:
    """What fault recovery cost this execution.

    All counters stay zero on a fault-free run; ``wasted_seconds`` is the
    simulated time spent on transfers that had to be abandoned or redone
    plus retry backoff — the raw material of the recovery-overhead ablation.
    """

    #: Transfer attempts retried after a transient fault.
    retries: int = 0
    #: Reads redirected from a failed storage node to a surviving replica.
    failovers: int = 0
    #: Indexed Join pairs moved off a dead compute node onto survivors.
    reassigned_pairs: int = 0
    #: Grace Hash chunks re-partitioned from surviving replicas.
    restarted_chunks: int = 0
    #: Cache entries dropped because their source storage node failed.
    cache_invalidations: int = 0
    #: Simulated seconds of abandoned transfers and retry backoff.
    wasted_seconds: float = 0.0
    #: Bytes transferred (fully or partially) and then thrown away.
    wasted_bytes: int = 0

    @property
    def any_recovery(self) -> bool:
        return bool(
            self.retries
            or self.failovers
            or self.reassigned_pairs
            or self.restarted_chunks
            or self.cache_invalidations
        )


@dataclass
class PhaseBreakdown:
    """Per-joiner accumulated wait times, keyed by cost-model term.

    The entries are *waits observed by the joiner's control loop*: because
    joiners run concurrently and resources are shared, sums across joiners
    exceed the makespan — like per-thread profiles on a real cluster.

    ``transfer`` is the time transfers for this joiner spent on the wire
    whether or not the control loop waited for them; ``stall`` is the
    subset the control loop actually blocked on data it needed.  In a
    synchronous execution every transfer is waited on, so
    ``stall == transfer`` and :attr:`overlap_ratio` is 0; the pipelined
    Indexed Join hides transfer time behind build/probe work, which shows
    up as ``stall < transfer``.  ``stall`` is a view onto ``transfer``,
    not an additional phase, so :attr:`total` does not include it.
    """

    transfer: float = 0.0
    scratch_write: float = 0.0
    scratch_read: float = 0.0
    cpu_build: float = 0.0
    cpu_lookup: float = 0.0
    stall: float = 0.0

    @property
    def cpu(self) -> float:
        return self.cpu_build + self.cpu_lookup

    @property
    def total(self) -> float:
        return self.transfer + self.scratch_write + self.scratch_read + self.cpu

    @property
    def transfer_overlapped(self) -> float:
        """Transfer time hidden behind computation (never negative)."""
        return max(0.0, self.transfer - self.stall)

    @property
    def overlap_ratio(self) -> float:
        """Fraction of transfer time hidden behind computation, in [0, 1]."""
        if self.transfer <= 0.0:
            return 0.0
        return min(1.0, self.transfer_overlapped / self.transfer)

    def __iadd__(self, other: "PhaseBreakdown") -> "PhaseBreakdown":
        self.transfer += other.transfer
        self.scratch_write += other.scratch_write
        self.scratch_read += other.scratch_read
        self.cpu_build += other.cpu_build
        self.cpu_lookup += other.cpu_lookup
        self.stall += other.stall
        return self


@dataclass
class ExecutionReport:
    """Complete record of one distributed join execution."""

    algorithm: str
    functional: bool
    #: Simulated end-to-end execution time (seconds) — the figures' y-axis.
    total_time: float = 0.0
    #: Per-joiner phase breakdowns.
    per_joiner: List[PhaseBreakdown] = field(default_factory=list)
    #: Bytes pulled from storage nodes over the network.
    bytes_from_storage: int = 0
    #: Bytes written to / read from compute-node scratch (Grace Hash only).
    bytes_scratch_written: int = 0
    bytes_scratch_read: int = 0
    #: Aggregate kernel operation counts (simulated charges).
    kernel: JoinKernelStats = field(default_factory=JoinKernelStats)
    #: Per-joiner cache statistics (Indexed Join only).
    cache_stats: List[CacheStats] = field(default_factory=list)
    #: Number of sub-table pairs / bucket pairs joined.
    pairs_joined: int = 0
    #: Result tuples per compute node (functional runs only).  Invariant:
    #: never a per-pair part — ``[]`` or one table per node for the
    #: Indexed Join (its slice of the execution's one kernel output),
    #: one table per non-empty bucket for Grace Hash; an answer is their
    #: concatenation in order.
    results: Optional[List[List[SubTable]]] = None
    #: Free-form extras (algorithm-specific numbers worth surfacing).
    extras: Dict[str, float] = field(default_factory=dict)
    #: What failure recovery cost this run (all-zero when fault-free).
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    #: Critical-path analysis of the recorded span DAG
    #: (:class:`repro.telemetry.critical_path.CriticalPath`); only set on
    #: telemetry-enabled runs.
    critical_path: Optional[object] = None
    #: The run's :class:`repro.telemetry.Telemetry` hub, for exporters;
    #: only set on telemetry-enabled runs.
    telemetry: Optional[object] = field(default=None, repr=False)

    @property
    def result_tuples(self) -> int:
        if self.results is None:
            return self.kernel.matches
        return sum(sub.num_records for per in self.results for sub in per)

    @property
    def overlap_ratio(self) -> float:
        """Aggregate fraction of transfer time hidden behind computation
        (0 for a fully synchronous execution)."""
        agg = self.aggregate_phases()
        return agg.overlap_ratio

    @property
    def stall_time(self) -> float:
        """Summed per-joiner control-loop waits on in-flight data."""
        return sum(pb.stall for pb in self.per_joiner)

    def aggregate_phases(self) -> PhaseBreakdown:
        """Sum of per-joiner breakdowns (exceeds makespan; see class doc)."""
        out = PhaseBreakdown()
        for pb in self.per_joiner:
            out += pb
        return out

    def summary(self) -> str:
        """One-paragraph human-readable account (examples print this)."""
        agg = self.aggregate_phases()
        lines = [
            f"{self.algorithm}: {self.total_time:.3f}s simulated "
            f"({'functional' if self.functional else 'model-only'} run)",
            f"  pairs joined: {self.pairs_joined}, result tuples: {self.result_tuples}",
            f"  bytes from storage: {self.bytes_from_storage:,}",
        ]
        if self.bytes_scratch_written or self.bytes_scratch_read:
            lines.append(
                f"  scratch: wrote {self.bytes_scratch_written:,} B, "
                f"read {self.bytes_scratch_read:,} B"
            )
        lines.append(
            f"  per-joiner waits (summed): transfer {agg.transfer:.3f}s, "
            f"write {agg.scratch_write:.3f}s, read {agg.scratch_read:.3f}s, "
            f"cpu {agg.cpu:.3f}s"
        )
        if agg.transfer_overlapped > 0:
            lines.append(
                f"  pipelining: {agg.overlap_ratio:.0%} of transfer time "
                f"overlapped with compute (stall {agg.stall:.3f}s)"
            )
        if self.cache_stats:
            hits = sum(s.hits for s in self.cache_stats)
            misses = sum(s.misses for s in self.cache_stats)
            lines.append(f"  cache: {hits} hits / {misses} misses")
        rec = self.recovery
        if rec.any_recovery:
            lines.append(
                f"  recovery: {rec.retries} retries, {rec.failovers} failovers, "
                f"{rec.reassigned_pairs} pairs reassigned, "
                f"{rec.restarted_chunks} chunks restarted, "
                f"{rec.cache_invalidations} cache invalidations "
                f"(wasted {rec.wasted_seconds:.3f}s / {rec.wasted_bytes:,} B)"
            )
        if self.critical_path is not None:
            lines.extend(
                "  " + line for line in self.critical_path.summary_lines(3)
            )
        return "\n".join(lines)
