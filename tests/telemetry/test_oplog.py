"""Structured ops log: emission contract and schema validation."""

import json

import pytest

from repro.telemetry.oplog import OPLOG_EVENTS, OpLog, validate_oplog


def _log():
    state = {"now": 0.0}
    log = OpLog(lambda: state["now"])
    return state, log


class TestOpLog:
    def test_records_carry_seq_time_and_identity(self):
        state, log = _log()
        log.emit("submit", qid=0, tenant="alice", kind="join")
        state["now"] = 1.5
        log.emit("admit", qid=0, tenant="alice", wait=1.5, depth=0)
        assert log.records[0] == {
            "seq": 0, "t": 0.0, "event": "submit",
            "qid": 0, "tenant": "alice", "kind": "join",
        }
        assert log.records[1]["seq"] == 1
        assert log.records[1]["t"] == 1.5
        assert len(log) == 2

    def test_unknown_event_rejected(self):
        _, log = _log()
        with pytest.raises(ValueError):
            log.emit("reticulate")

    def test_field_cannot_shadow_core_key(self):
        _, log = _log()
        with pytest.raises(ValueError):
            log.emit("submit", seq=99)

    def test_counts_sorted_histogram(self):
        _, log = _log()
        for ev in ("submit", "queue", "admit", "complete", "submit"):
            log.emit(ev)
        assert log.counts() == {
            "admit": 1, "complete": 1, "queue": 1, "submit": 2,
        }

    def test_jsonl_round_trip_validates(self, tmp_path):
        state, log = _log()
        log.emit("submit", qid=0, tenant="a")
        state["now"] = 0.5
        log.emit("shed", qid=0, tenant="a", reason="queue_full")
        path = tmp_path / "ops.jsonl"
        log.write(str(path))
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert validate_oplog(records) == []
        # sorted keys per line, byte-stable
        assert lines[0] == json.dumps(records[0], sort_keys=True)
        assert log.to_jsonl() == log.to_jsonl()


class TestValidateOplog:
    GOOD = [
        {"seq": 0, "t": 0.0, "event": "submit", "qid": 1, "tenant": "a"},
        {"seq": 1, "t": 0.5, "event": "complete", "qid": 1, "latency": 0.5},
    ]

    def test_clean_log_passes(self):
        assert validate_oplog(self.GOOD) == []

    def test_every_event_name_is_known(self):
        assert "submit" in OPLOG_EVENTS and "alert" in OPLOG_EVENTS
        bad = [{"seq": 0, "t": 0.0, "event": "frobnicate"}]
        assert any("unknown event" in v for v in validate_oplog(bad))
        # an unhashable event is unknown too, not a TypeError
        bad = [{"seq": 0, "t": 0.0, "event": ["submit"]}]
        assert validate_oplog(bad)[0] == "record 0: unknown event ['submit']"

    def test_seq_must_match_position(self):
        bad = [{"seq": 3, "t": 0.0, "event": "submit"}]
        assert any("seq" in v for v in validate_oplog(bad))
        # ``False == 0``, ``True == 1`` and ``2.0 == 2``, yet none is a position
        bad = [
            {"seq": False, "t": 0.0, "event": "submit"},
            {"seq": True, "t": 0.0, "event": "submit"},
            {"seq": 2.0, "t": 0.0, "event": "submit"},
        ]
        violations = validate_oplog(bad)
        assert [v.split(":")[0] for v in violations if "seq" in v] == [
            "record 0", "record 1", "record 2",
        ]

    def test_time_must_not_decrease(self):
        bad = [
            {"seq": 0, "t": 2.0, "event": "submit"},
            {"seq": 1, "t": 1.0, "event": "complete"},
        ]
        assert any("decreases" in v for v in validate_oplog(bad))

    def test_identity_types_checked(self):
        bad = [
            {"seq": 0, "t": 0.0, "event": "submit", "qid": "one"},
            {"seq": 1, "t": 0.0, "event": "submit", "qid": True},
            {"seq": 2, "t": 0.0, "event": "submit", "tenant": 5},
        ]
        violations = validate_oplog(bad)
        assert len([v for v in violations if "not an int" in v]) == 2
        assert any("not a string" in v for v in violations)

    def test_records_must_be_flat(self):
        bad = [{"seq": 0, "t": 0.0, "event": "submit", "extra": {"deep": 1}}]
        assert any("not a scalar" in v for v in validate_oplog(bad))

    def test_missing_keys_reported(self):
        assert any(
            "missing keys" in v for v in validate_oplog([{"seq": 0}])
        )
