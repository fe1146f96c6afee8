"""Artifact validators: trace metric dumps, observability sections, CLI."""

import copy
import json

import pytest

from repro.telemetry.validate import (
    main,
    validate_chrome_trace,
    validate_observability,
)


def _trace(events=None, metrics=None):
    doc = {"traceEvents": events if events is not None else [
        {"name": "p", "ph": "M", "pid": 0,
         "args": {"name": "x"}},
    ]}
    # make the metadata event legal
    doc["traceEvents"][0]["name"] = "process_name"
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics}
    return doc


class TestTraceMetricsDump:
    def test_gauge_samples_must_be_timestamp_monotonic(self):
        doc = _trace(metrics={
            "queue.disk": {
                "type": "gauge",
                "samples": [[0.0, 1.0], [2.0, 3.0], [1.0, 0.0]],
            },
        })
        errors = validate_chrome_trace(doc)
        assert any("not increasing" in e for e in errors)

    def test_malformed_gauge_sample_reported(self):
        doc = _trace(metrics={
            "queue.disk": {"type": "gauge", "samples": [[0.0], "nope"]},
        })
        errors = validate_chrome_trace(doc)
        assert sum("malformed" in e for e in errors) == 2

    def test_counter_value_must_be_non_negative(self):
        doc = _trace(metrics={"bytes.read": {"type": "counter", "value": -1}})
        errors = validate_chrome_trace(doc)
        assert any("negative" in e for e in errors)

    def test_clean_metrics_pass(self):
        doc = _trace(metrics={
            "bytes.read": {"type": "counter", "value": 42},
            "queue.disk": {"type": "gauge", "samples": [[0.0, 1.0], [2.0, 0.0]]},
        })
        assert validate_chrome_trace(doc) == []

    def test_counter_series_events_must_be_monotonic(self):
        events = [
            {"name": "depth", "ph": "C", "ts": 2.0, "pid": 0,
             "args": {"v": 1}},
            {"name": "depth", "ph": "C", "ts": 1.0, "pid": 0,
             "args": {"v": 2}},
        ]
        errors = validate_chrome_trace({"traceEvents": events})
        assert any("decreases" in e for e in errors)


def _obs_section(counter_windows=None, total=2.0):
    return {
        "timeseries": {
            "t_end": 2.0,
            "counters": {
                "served": {
                    "total": total,
                    "windows": counter_windows if counter_windows is not None
                    else [
                        {"t0": 0.0, "t1": 1.0, "count": 1.0, "rate": 1.0},
                        {"t0": 1.0, "t1": 2.0, "count": 1.0, "rate": 1.0},
                    ],
                },
            },
            "gauges": {},
        },
        "alerts": [],
    }


class TestValidateObservability:
    def test_clean_section_passes(self):
        assert validate_observability(_obs_section()) == []

    def test_windows_must_tile_the_horizon(self):
        bad = _obs_section(counter_windows=[
            {"t0": 0.0, "t1": 1.0, "count": 2.0, "rate": 2.0},
            {"t0": 1.5, "t1": 2.0, "count": 0.0, "rate": 0.0},
        ])
        errors = validate_observability(bad)
        assert any("starts at 1.5" in e for e in errors)

    def test_window_counts_must_sum_to_total(self):
        errors = validate_observability(_obs_section(total=5.0))
        assert any("sum to" in e for e in errors)

    def test_negative_count_reported(self):
        bad = _obs_section(counter_windows=[
            {"t0": 0.0, "t1": 2.0, "count": -1.0, "rate": 0.0},
        ])
        errors = validate_observability(bad)
        assert any("negative" in e for e in errors)

    def test_alert_history_must_be_chronological(self):
        section = _obs_section()
        section["alerts"] = [{"fired_at": 2.0}, {"fired_at": 1.0}]
        errors = validate_observability(section)
        assert any("fired_at" in e for e in errors)

    def test_non_object_rejected(self):
        assert validate_observability([]) != []
        assert validate_observability({"no": "timeseries"}) != []

    @pytest.mark.parametrize("kind", ["counters", "gauges"])
    @pytest.mark.parametrize("tracks, reason", [
        (5, "timeseries '{kind}' is not an object"),
        ([1], "timeseries '{kind}' is not an object"),
        ({"x": 3}, "{kind_} 'x': not an object"),
        ({"x": {"windows": 5}}, "{kind_} 'x': missing or empty windows"),
    ], ids=["number", "array", "track-a-number", "windows-a-number"])
    def test_malformed_tracks_are_violations_not_exceptions(
        self, kind, tracks, reason
    ):
        # each of these was a TypeError / IndexError / AttributeError
        section = _obs_section()
        section["timeseries"][kind] = tracks
        assert validate_observability(section) == [
            reason.format(kind=kind, kind_=kind[:-1])
        ]

    def test_no_mutation_of_a_valid_section_raises(self):
        # boundary fuzz (ROADMAP 5e): swap every node of a valid section,
        # reuse payload included, for every wrongly typed value — the
        # validator must answer with violation strings, never raise
        section = _obs_section()
        section["reuse"] = {
            "trace": {"accesses": 3},
            "mrc": {
                "global": [
                    {"capacity_bytes": 1, "misses": 2, "accesses": 3,
                     "miss_ratio": 2 / 3},
                ],
                "per_tenant": {"alice": []},
            },
            "working_set": {"windows": [{"accesses": 3}]},
            "advisor": {"candidates": [
                {"key": "T1:0", "score_s": 1.0, "nbytes": 64},
                {"key": "T1:1", "score_s": 0.5, "nbytes": 64},
            ]},
        }
        assert validate_observability(section) == []

        def paths(node, prefix=()):
            if prefix:
                yield prefix
            children = (
                node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ()
            )
            for key, child in children:
                yield from paths(child, prefix + (key,))

        wrong = [5, -1.5, "x", True, None, [], [1], {}, {"x": 3}]
        for path in list(paths(section)):
            for value in wrong:
                mutated = copy.deepcopy(section)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                errors = validate_observability(mutated)
                assert all(isinstance(e, str) for e in errors), (path, value)


class TestValidateCli:
    def test_dispatch_by_artifact_shape(self, tmp_path, capsys):
        oplog = tmp_path / "ops.jsonl"
        oplog.write_text(
            json.dumps({"seq": 0, "t": 0.0, "event": "submit"}) + "\n"
        )
        report = tmp_path / "report.json"
        report.write_text(json.dumps(
            {"queries": [], "observability": _obs_section()}
        ))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"queries": []}))
        assert main([str(oplog), str(report), str(plain)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 3

    def test_violations_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "ops.jsonl"
        bad.write_text(json.dumps({"seq": 5, "t": 0.0, "event": "submit"}) + "\n")
        assert main([str(bad)]) == 1
        assert "seq" in capsys.readouterr().out

    def test_unrecognised_artifact_fails(self, tmp_path):
        mystery = tmp_path / "what.json"
        mystery.write_text(json.dumps({"hello": 1}))
        assert main([str(mystery)]) == 1

    def test_no_args_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out
