"""Structured JSONL ops log of server lifecycle decisions.

Every decision the serving layer makes about a query — admitted, queued,
shed, retried, backed off, raced against its deadline, hit by a fault,
recovered — is appended here as one flat JSON record stamped with the
*simulated* clock and a strictly increasing sequence number.  The log is
the narrative companion to the windowed time-series: the series shows
*that* queue depth spiked at t=4, the ops log shows *which* queries were
shed and why.

Records are append-only and never reordered, so a byte-identical replay
produces a byte-identical log.

The schema is deliberately small: ``seq``, ``t`` and ``event`` are
mandatory; ``qid`` and ``tenant`` are optional identities (the validator
also type-checks a ``span`` identity in logs written elsewhere); any
further keys are event-specific scalars.  :func:`validate_oplog` checks
this contract and is wired into ``python -m repro.telemetry.validate``
for ``.jsonl`` files.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["OPLOG_EVENTS", "OpLog", "validate_oplog"]

#: Known lifecycle decision vocabulary.  The validator rejects anything
#: else so a typo'd event name fails fast instead of silently forking
#: the schema.
OPLOG_EVENTS = frozenset(
    {
        "submit",  # query arrived and was planned
        "queue",  # entered the admission queue (field: depth)
        "admit",  # granted a slot (fields: wait, depth, slots_in_use)
        "shed",  # terminal shed (field: reason)
        "evict",  # queued victim evicted in favour of an arrival
        "retry",  # attempt failed, another will run (field: attempt)
        "backoff",  # retry delay begins (field: delay)
        "breaker_open",  # circuit breaker opened
        "breaker_close",  # circuit breaker closed again
        "deadline",  # deadline race lost (field: where)
        "fault",  # an attempt died to an injected fault (fields: attempt, cause)
        "failed",  # terminal failure after retries exhausted
        "recovery",  # completed after >=1 failed attempt (field: retries)
        "complete",  # terminal success (field: latency)
        "alert",  # SLO burn-rate alert fired (fields: short_burn, ...)
        "alert_clear",  # burn-rate alert condition cleared
    }
)

#: Keys every record must carry.
_REQUIRED_KEYS = ("seq", "t", "event")

#: Scalar types allowed for event-specific fields (flat records only).
_SCALAR = (str, int, float, bool, type(None))


class OpLog:
    """Append-only, simulated-time-stamped decision log.

    ``clock`` returns simulated seconds.  Emission is purely
    observational — no engine interaction, no randomness — so logging
    cannot perturb the run it describes.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.records: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self.records)

    def emit(
        self,
        event: str,
        *,
        qid: Optional[int] = None,
        tenant: Optional[str] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        if event not in OPLOG_EVENTS:
            raise ValueError(f"unknown oplog event {event!r}")
        record: Dict[str, Any] = {
            "seq": len(self.records),
            "t": self._clock(),
            "event": event,
        }
        if qid is not None:
            record["qid"] = qid
        if tenant is not None:
            record["tenant"] = tenant
        for key, value in fields.items():
            if key in record:
                raise ValueError(f"oplog field {key!r} shadows a core key")
            record[key] = value
        self.records.append(record)
        return record

    def counts(self) -> Dict[str, int]:
        """Event-name histogram (sorted keys, for summaries)."""
        out: Dict[str, int] = {}
        for record in self.records:
            out[record["event"]] = out.get(record["event"], 0) + 1
        return {name: out[name] for name in sorted(out)}

    def to_jsonl(self) -> str:
        """One sorted-key JSON object per line, trailing newline."""
        return "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in self.records
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


def validate_oplog(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema-check parsed oplog records; returns violation strings.

    Checks: required keys present, ``seq`` strictly increasing from 0,
    ``t`` non-negative and non-decreasing, ``event`` in the known
    vocabulary, identity fields correctly typed, and every record flat
    (scalar fields only).
    """
    violations: List[str] = []
    prev_t = None
    for i, record in enumerate(records):
        where = f"record {i}"
        if not isinstance(record, dict):
            violations.append(f"{where}: not a JSON object")
            continue
        missing = [k for k in _REQUIRED_KEYS if k not in record]
        if missing:
            violations.append(f"{where}: missing keys {missing}")
            continue
        seq = record["seq"]
        # ``False == 0`` and ``2.0 == 2``: only a true int is a position
        if not isinstance(seq, int) or isinstance(seq, bool) or seq != i:
            violations.append(f"{where}: seq {seq!r} != expected {i}")
        t = record["t"]
        if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
            violations.append(f"{where}: bad timestamp {t!r}")
        elif prev_t is not None and t < prev_t:
            violations.append(
                f"{where}: timestamp {t} decreases from {prev_t}"
            )
        else:
            prev_t = t
        event = record["event"]
        if not isinstance(event, str) or event not in OPLOG_EVENTS:
            violations.append(f"{where}: unknown event {event!r}")
        for key in ("qid", "span"):
            if key in record and (
                not isinstance(record[key], int) or isinstance(record[key], bool)
            ):
                violations.append(
                    f"{where}: {key} {record[key]!r} is not an int"
                )
        if "tenant" in record and not isinstance(record["tenant"], str):
            violations.append(
                f"{where}: tenant {record['tenant']!r} is not a string"
            )
        for key, value in record.items():
            if not isinstance(value, _SCALAR):
                violations.append(
                    f"{where}: field {key!r} is not a scalar "
                    f"({type(value).__name__})"
                )
    return violations
