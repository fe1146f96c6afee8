"""Analytic cost models for the two join QES (Section 5 of the paper).

Indexed Join::

    Total_IJ    = Transfer_IJ + Cpu_IJ
    Transfer_IJ = T·(RS_R + RS_S) / min(Net_bw(n_s, n_j), readIO_bw·n_s)
    Cpu_IJ      = BuildHT_IJ + Lookup_IJ
    BuildHT_IJ  = α_build · T / n_j
    Lookup_IJ   = α_lookup · n_e · c_S / n_j

Pipelined Indexed Join (the prefetching execution mode): transfers overlap
with build/probe work, so per the classic pipelining argument the makespan
approaches the slower of the two streams instead of their sum::

    Total_IJ_pipe = max(Transfer_IJ, Cpu_IJ)

(model via ``indexed_join_cost(p, pipelined=True)``; the residual
non-overlapped head/tail — the first pair's transfer and the last pair's
compute — is one pair's worth of work and vanishes for any realistic pair
count, so the model drops it).

Grace Hash::

    Total_GH    = Transfer_GH + Write_GH + Read_GH + Cpu_GH
    Transfer_GH = Transfer_IJ
    Write_GH    = T·(RS_R + RS_S) / (writeIO_bw · n_j)
    Read_GH     = T·(RS_R + RS_S) / (readIO_bw · n_j)
    Cpu_GH      = α_build·T/n_j + α_lookup·T/n_j

and the Section 6.2 decision rule: with ``IO_bw = readIO = writeIO``,
``m_S = T/c_S`` and ``α = γ/F``, prefer IJ when::

    IO_bw / F < 2·(RS_R + RS_S) / (γ2 · (n_e/m_S − 1))

The models also support the Figure 9 shared-NFS deployment, where
``Net_bw`` collapses to the single server's link and the Grace Hash bucket
traffic additionally crosses the shared server (every scratch byte pays the
network once and the server disk once, serialised with everything else).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.nodes import MachineSpec

__all__ = [
    "CostParameters",
    "CostBreakdown",
    "indexed_join_cost",
    "grace_hash_cost",
    "preferred_algorithm",
    "io_over_f_threshold",
    "crossover_ne_cs",
    "models_are_tossup",
    "TOSSUP_MARGIN",
]

#: Relative gap below which the two models are considered a toss-up:
#: either QES could win, so the plan choice is fragile under drift.
TOSSUP_MARGIN = 0.05


def models_are_tossup(
    ij_total: float, gh_total: float, margin: float = TOSSUP_MARGIN
) -> bool:
    """True when the two model totals land within ``margin`` of each other."""
    hi = max(ij_total, gh_total)
    lo = min(ij_total, gh_total)
    return hi > 0 and (hi - lo) <= margin * hi


@dataclass(frozen=True)
class CostParameters:
    """Table 1: dataset and system parameters, plus the topology flag."""

    T: int                  #: tuples in each of R and S
    c_R: int                #: tuples per R sub-table
    c_S: int                #: tuples per S sub-table
    n_e: int                #: edges in the sub-table connectivity graph
    RS_R: int               #: record size of R (bytes)
    RS_S: int               #: record size of S (bytes)
    n_s: int                #: storage nodes
    n_j: int                #: joiner (compute) nodes
    link_bw: float          #: per-node NIC bandwidth (bytes/s)
    read_io_bw: float       #: readIO_bw (bytes/s)
    write_io_bw: float      #: writeIO_bw (bytes/s)
    alpha_build: float      #: hash-table insert cost (s/tuple)
    alpha_lookup: float     #: hash-table probe cost (s/tuple)
    shared_nfs: bool = False

    def __post_init__(self) -> None:
        if self.T < 0 or self.c_R <= 0 or self.c_S <= 0 or self.n_e < 0:
            raise ValueError("bad dataset parameters")
        if self.n_s <= 0 or self.n_j <= 0:
            raise ValueError("need at least one storage and one joiner node")
        if min(self.link_bw, self.read_io_bw, self.write_io_bw) <= 0:
            raise ValueError("bandwidths must be positive")
        if self.alpha_build < 0 or self.alpha_lookup < 0:
            raise ValueError("alpha costs must be >= 0")
        if self.shared_nfs and self.n_s != 1:
            raise ValueError("shared-NFS deployments have one storage server")

    # -- derived quantities -------------------------------------------------------

    @property
    def net_bw(self) -> float:
        """``Net_bw(n_s, n_j)``: aggregate storage↔compute bandwidth.

        Switched fabric: the thinner side's links bound the aggregate.
        Shared NFS: everything crosses the one server link.
        """
        if self.shared_nfs:
            return self.link_bw
        return min(self.n_s, self.n_j) * self.link_bw

    @property
    def m_S(self) -> int:
        """Number of S sub-tables."""
        return max(1, self.T // self.c_S)

    @property
    def bytes_total(self) -> int:
        """``T·(RS_R + RS_S)``: bytes both algorithms pull from storage."""
        return self.T * (self.RS_R + self.RS_S)

    @classmethod
    def from_machine(
        cls,
        machine: MachineSpec,
        *,
        T: int,
        c_R: int,
        c_S: int,
        n_e: int,
        RS_R: int,
        RS_S: int,
        n_s: int,
        n_j: int,
        shared_nfs: bool = False,
    ) -> "CostParameters":
        """Fill the system half of Table 1 from a machine spec (α values
        already scaled by the spec's computing-power factor F)."""
        return cls(
            T=T, c_R=c_R, c_S=c_S, n_e=n_e, RS_R=RS_R, RS_S=RS_S,
            n_s=n_s, n_j=n_j,
            link_bw=machine.link_bw,
            read_io_bw=machine.disk_read_bw,
            write_io_bw=machine.disk_write_bw,
            alpha_build=machine.build_cost,
            alpha_lookup=machine.lookup_cost,
            shared_nfs=shared_nfs,
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Predicted per-term times (seconds), mirroring the model equations.

    ``pipelined`` marks a prediction for the overlapped execution mode:
    the terms themselves are unchanged (each stream still moves/computes
    the same work), but :attr:`total` combines transfer and CPU with
    ``max`` instead of ``+``.  Scratch I/O (Grace Hash) is never
    overlapped — the QES thread is busy writing — so write/read stay
    additive either way.
    """

    transfer: float = 0.0
    write: float = 0.0
    read: float = 0.0
    cpu_build: float = 0.0
    cpu_lookup: float = 0.0
    pipelined: bool = False

    @property
    def cpu(self) -> float:
        return self.cpu_build + self.cpu_lookup

    @property
    def total(self) -> float:
        if self.pipelined:
            return max(self.transfer, self.cpu) + self.write + self.read
        return self.transfer + self.write + self.read + self.cpu


def indexed_join_cost(p: CostParameters, pipelined: bool = False) -> CostBreakdown:
    """``Total_IJ`` and its terms (``Total_IJ_pipe`` when ``pipelined``)."""
    return CostBreakdown(
        transfer=p.bytes_total / min(p.net_bw, p.read_io_bw * p.n_s),
        cpu_build=p.alpha_build * p.T / p.n_j,
        cpu_lookup=p.alpha_lookup * p.n_e * p.c_S / p.n_j,
        pipelined=pipelined,
    )


def grace_hash_cost(p: CostParameters) -> CostBreakdown:
    """``Total_GH`` and its terms.

    In the shared-NFS deployment the bucket write and re-read also cross
    the single server: each direction is bounded by the slower of the
    server link and the server disk, and does not parallelise over
    ``n_j`` — which is why adding compute nodes cannot help GH there.
    """
    if p.shared_nfs:
        write = p.bytes_total / min(p.link_bw, p.write_io_bw)
        read = p.bytes_total / min(p.link_bw, p.read_io_bw)
    else:
        write = p.bytes_total / (p.write_io_bw * p.n_j)
        read = p.bytes_total / (p.read_io_bw * p.n_j)
    return CostBreakdown(
        transfer=p.bytes_total / min(p.net_bw, p.read_io_bw * p.n_s),
        write=write,
        read=read,
        cpu_build=p.alpha_build * p.T / p.n_j,
        cpu_lookup=p.alpha_lookup * p.T / p.n_j,
    )


def preferred_algorithm(
    p: CostParameters, pipelined: bool = False
) -> Tuple[str, CostBreakdown, CostBreakdown]:
    """Compare totals; returns (winner, ij_cost, gh_cost).

    ``pipelined`` compares the overlapped Indexed Join against the (always
    synchronous) Grace Hash, shifting the crossover in IJ's favour on
    transfer-bound configurations.
    """
    ij = indexed_join_cost(p, pipelined=pipelined)
    gh = grace_hash_cost(p)
    return ("indexed-join" if ij.total <= gh.total else "grace-hash", ij, gh)


def io_over_f_threshold(p: CostParameters, gamma2: float, f: float = 1.0) -> Optional[float]:
    """The Section 6.2 inequality's right-hand side.

    Prefer IJ when ``IO_bw / F <`` the returned threshold (with
    ``IO_bw = readIO = writeIO`` assumed).  Returns ``None`` when
    ``n_e/m_S <= 1`` — then IJ does no extra lookups and wins at any ratio
    (the inequality's denominator vanishes or flips sign).
    """
    degree_excess = p.n_e / p.m_S - 1.0
    if degree_excess <= 0:
        return None
    return 2.0 * (p.RS_R + p.RS_S) / (gamma2 * degree_excess)


def crossover_ne_cs(p: CostParameters) -> float:
    """The ``n_e·c_S`` value where ``Total_IJ == Total_GH`` (Figure 4's
    crossover point), holding everything else in ``p`` fixed.

    Solving ``α_lookup·n_e·c_S/n_j = Write_GH + Read_GH + α_lookup·T/n_j``.
    """
    if p.alpha_lookup <= 0:
        return math.inf
    gh = grace_hash_cost(p)
    return ((gh.write + gh.read) * p.n_j / p.alpha_lookup) + p.T
