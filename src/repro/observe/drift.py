"""The cost-model drift store and drift reports.

Every ``repro run --analyze`` appends one :class:`DriftRecord` per
(algorithm, cost term) to a JSONL store — by default
``benchmarks/results/DRIFT.jsonl`` — keyed by a deterministic
*configuration fingerprint* (a hash of the Table 1 inputs plus the
deployment shape).  ``repro drift`` then pools the records per
(algorithm, term), compares observed against predicted seconds, and
flags terms whose ratio departs from 1.0 beyond a threshold.  A flag is
a report, not a correction: nothing here is fed back into the planner.

Everything here is seed-free and deterministically ordered: records are
appended sorted by ``(fingerprint, algorithm, term)``, serialised with
sorted keys, and carry no timestamps — two identical runs append
byte-identical lines.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.core.cost_models import CostParameters

__all__ = [
    "DriftRecord",
    "DriftStore",
    "TermDriftSummary",
    "config_fingerprint",
    "summarize_drift",
    "render_drift_report",
    "DEFAULT_DRIFT_THRESHOLD",
]

#: Default symmetric drift tolerance: flag a term once observed/predicted
#: (or its inverse) exceeds 1.25.
DEFAULT_DRIFT_THRESHOLD = 0.25


@dataclass(frozen=True)
class DriftRecord:
    """One (configuration, algorithm, cost term) observation."""

    fingerprint: str
    algorithm: str
    term: str
    predicted_s: float
    observed_s: float
    #: whether the plan this record came from was a toss-up (the two
    #: models within 5% of each other) — drift on these terms can
    #: silently flip the planner's choice, so reports call them out.
    tossup: bool = False

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "algorithm": self.algorithm,
            "term": self.term,
            "predicted_s": self.predicted_s,
            "observed_s": self.observed_s,
            "tossup": self.tossup,
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, object]) -> "DriftRecord":
        return cls(
            fingerprint=str(obj["fingerprint"]),
            algorithm=str(obj["algorithm"]),
            term=str(obj["term"]),
            predicted_s=float(obj["predicted_s"]),  # type: ignore[arg-type]
            observed_s=float(obj["observed_s"]),  # type: ignore[arg-type]
            tossup=bool(obj.get("tossup", False)),
        )


def config_fingerprint(
    params: CostParameters, *, pipelined: bool = False, label: str = ""
) -> str:
    """Deterministic id for one planned configuration.

    Hashes the Table 1 inputs, the deployment shape and the execution
    mode, so repeated runs of one deployment land on one fingerprint and
    their drift history stays in one series.
    """
    payload = {
        "T": params.T,
        "c_R": params.c_R,
        "c_S": params.c_S,
        "n_e": params.n_e,
        "RS_R": params.RS_R,
        "RS_S": params.RS_S,
        "n_s": params.n_s,
        "n_j": params.n_j,
        "link_bw": params.link_bw,
        "read_io_bw": params.read_io_bw,
        "write_io_bw": params.write_io_bw,
        "alpha_build": params.alpha_build,
        "alpha_lookup": params.alpha_lookup,
        "shared_nfs": params.shared_nfs,
        "pipelined": pipelined,
        "label": label,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:16]


class DriftStore:
    """Append-only JSONL store of :class:`DriftRecord` lines.

    Writes are sorted and timestamp-free so the store is a pure function
    of the runs appended to it, in order — re-running the same command
    sequence reproduces the file byte for byte.
    """

    DEFAULT_PATH = Path("benchmarks") / "results" / "DRIFT.jsonl"

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else self.DEFAULT_PATH

    def append(self, records: Iterable[DriftRecord]) -> int:
        """Append ``records`` (sorted) as JSONL lines; returns the count."""
        ordered = sorted(
            records, key=lambda r: (r.fingerprint, r.algorithm, r.term)
        )
        if not ordered:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            for rec in ordered:
                fh.write(json.dumps(rec.to_json_obj(), sort_keys=True) + "\n")
        return len(ordered)

    def load(self) -> List[DriftRecord]:
        if not self.path.exists():
            return []
        records = []
        with open(self.path, "r", encoding="utf-8") as fh:
            try:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(DriftRecord.from_json_obj(json.loads(line)))
                    except (ValueError, KeyError, TypeError) as exc:
                        # TypeError: the line parsed, but not to an object
                        # with numeric terms (a JSON array, string, null…)
                        raise ValueError(
                            f"{self.path}:{lineno}: bad drift record: {exc}"
                        ) from exc
            except UnicodeDecodeError as exc:
                raise ValueError(f"{self.path}: not UTF-8 text ({exc})") from exc
        return records


@dataclass(frozen=True)
class TermDriftSummary:
    """Pooled drift of one (algorithm, cost term) across the store."""

    algorithm: str
    term: str
    runs: int
    predicted_s: float
    observed_s: float
    tossup_runs: int

    @property
    def ratio(self) -> Optional[float]:
        if self.predicted_s <= 0:
            return None
        return self.observed_s / self.predicted_s

    @staticmethod
    def _deviation(ratio: Optional[float]) -> float:
        """Symmetric drift magnitude: ``max(r, 1/r) - 1`` (0 = no drift)."""
        if ratio is None or ratio <= 0:
            return math.inf
        return max(ratio, 1.0 / ratio) - 1.0

    def flagged(self, threshold: float = DEFAULT_DRIFT_THRESHOLD) -> bool:
        return self._deviation(self.ratio) > threshold

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "term": self.term,
            "runs": self.runs,
            "predicted_s": self.predicted_s,
            "observed_s": self.observed_s,
            "ratio": self.ratio,
            "tossup_runs": self.tossup_runs,
        }


def summarize_drift(records: Iterable[DriftRecord]) -> List[TermDriftSummary]:
    """Pool records per (algorithm, term), sorted for deterministic output."""
    grouped: Dict[tuple, List[DriftRecord]] = {}
    for rec in records:
        grouped.setdefault((rec.algorithm, rec.term), []).append(rec)
    out: List[TermDriftSummary] = []
    for (algorithm, term) in sorted(grouped):
        group = grouped[(algorithm, term)]
        out.append(
            TermDriftSummary(
                algorithm=algorithm,
                term=term,
                runs=len(group),
                predicted_s=math.fsum(r.predicted_s for r in group),
                observed_s=math.fsum(r.observed_s for r in group),
                tossup_runs=sum(1 for r in group if r.tossup),
            )
        )
    return out


def render_drift_report(
    summaries: List[TermDriftSummary],
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
) -> str:
    """Deterministic text table of per-term drift, flags last column."""

    def ratio_text(ratio: Optional[float]) -> str:
        return "-" if ratio is None else f"{ratio:.3f}x"

    header = ["algorithm", "term", "runs", "predicted (s)", "observed (s)",
              "ratio", "flag"]
    rows: List[List[str]] = []
    flagged = 0
    tossups = 0
    for s in summaries:
        is_flagged = s.flagged(threshold)
        flagged += is_flagged
        tossups += s.tossup_runs
        rows.append([
            s.algorithm, s.term, str(s.runs),
            f"{s.predicted_s:.4f}", f"{s.observed_s:.4f}",
            ratio_text(s.ratio),
            "DRIFT" if is_flagged else "",
        ])
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        f"cost-model drift report (threshold: ratio beyond "
        f"{1 + threshold:.2f}x either way)"
    ]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    lines.append(f"{flagged} of {len(summaries)} terms flagged")
    if tossups:
        lines.append(
            f"note: {tossups} record(s) come from toss-up plans (models "
            f"within 5%) — drift there can flip the planner's choice"
        )
    return "\n".join(lines)
