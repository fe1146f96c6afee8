"""SLO objectives, error budgets, and multi-window burn-rate alerts."""

import pytest

from repro.server.resilience import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED,
)
from repro.server.slo import BurnAlert, SLOObjective, SLOTracker


class TestSLOObjective:
    def test_budget_fraction(self):
        assert SLOObjective(availability=0.9).budget_fraction == pytest.approx(0.1)

    def test_availability_must_be_strictly_inside_unit_interval(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                SLOObjective(availability=bad)

    def test_every_non_completed_disposition_is_bad(self):
        obj = SLOObjective(availability=0.99)
        for disp in (DEADLINE_EXCEEDED, SHED, FAILED):
            assert not obj.is_good(disp, None)
        assert obj.is_good(COMPLETED, 123.0)

    def test_completed_but_slow_is_bad(self):
        obj = SLOObjective(availability=0.99, latency_target=1.0)
        assert obj.is_good(COMPLETED, 1.0)
        assert not obj.is_good(COMPLETED, 1.5)
        # no latency information: count as good rather than guessing
        assert obj.is_good(COMPLETED, None)

    def test_unknown_disposition_rejected(self):
        with pytest.raises(ValueError):
            SLOObjective().is_good("vanished", None)


def _tracker(**kwargs):
    params = {"short_window": 2.0, "long_window": 8.0}
    params.update(kwargs)
    return SLOTracker(
        {"a": SLOObjective(availability=0.9)}, **params
    )


class TestSLOTracker:
    def test_untracked_tenant_is_ignored(self):
        tracker = _tracker()
        assert tracker.record(0.0, "ghost", COMPLETED) == []
        assert tracker.summary() == {
            "a": tracker.summary()["a"],
        }

    def test_alert_fires_only_when_both_windows_burn(self):
        tracker = _tracker()
        # 3 bad events: long window burns but min_events not yet reached
        events = []
        for i, t in enumerate((0.5, 1.0, 1.5)):
            events += tracker.record(t, "a", SHED)
        assert events == []
        # 4th bad event: both windows now burn >= threshold
        events = tracker.record(1.8, "a", SHED)
        assert len(events) == 1
        kind, alert = events[0]
        assert kind == "alert"
        assert isinstance(alert, BurnAlert)
        assert alert.fired_at == 1.8
        assert alert.short_burn >= SLOTracker.THRESHOLD
        assert alert.cleared_at is None

    def test_alert_is_edge_triggered_and_clears(self):
        tracker = _tracker()
        for t in (0.5, 1.0, 1.5, 1.8):
            tracker.record(t, "a", SHED)
        # still burning: no second alert
        assert tracker.record(1.9, "a", SHED) == []
        assert len(tracker.alerts) == 1
        # a stretch of good completions dilutes both windows below burn
        events = []
        for i in range(40):
            events += tracker.record(2.0 + i * 0.1, "a", COMPLETED, 0.1)
        clears = [e for e in events if e[0] == "alert_clear"]
        assert len(clears) == 1
        assert clears[0][1].cleared_at is not None
        assert tracker.summary()["a"]["alert_active"] is False

    def test_short_window_spike_alone_does_not_page(self):
        # long window full of good events, then one tight burst of bad:
        # the short window burns but the long window stays below threshold
        tracker = _tracker()
        for i in range(30):
            tracker.record(i * 0.25, "a", COMPLETED, 0.1)
        events = tracker.record(7.6, "a", SHED)
        assert events == []

    def test_summary_accounts_budget(self):
        tracker = _tracker()
        tracker.record(0.1, "a", COMPLETED, 0.1)
        tracker.record(0.2, "a", SHED)
        s = tracker.summary()["a"]
        assert s["events"] == 2
        assert s["good"] == 1 and s["bad"] == 1
        assert s["error_rate"] == 0.5
        assert s["budget_consumed"] == pytest.approx(0.5 / s["budget_fraction"])

    def test_deterministic_alert_history(self):
        def run():
            tracker = _tracker()
            for t in (0.5, 1.0, 1.5, 1.8, 2.5):
                tracker.record(t, "a", SHED)
            for i in range(20):
                tracker.record(3.0 + i * 0.2, "a", COMPLETED, 0.1)
            return tracker.alert_payload()

        assert run() == run()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _tracker(short_window=0.0)
        with pytest.raises(ValueError):
            _tracker(short_window=9.0)  # exceeds long window
