"""Exporters: Chrome trace-event JSON and the text dump."""

from repro.telemetry import Telemetry
from repro.telemetry.export import chrome_trace, text_dump, write_chrome_trace


def small_telemetry():
    """A tiny hand-built trace spanning two nodes, a flow edge, a resource
    interval, and one of each metric kind."""
    tel = Telemetry(label="unit")
    rec = tel.recorder
    q = rec.begin("query", category="query", parent=None, start=0.0)
    t = rec.begin("transfer", category="transfer", node="storage0",
                  track="ship", parent=q, start=1.0, bytes=512)
    rec.finish(t, at=3.0)
    w = rec.begin("bucket-write", category="scratch-write", node="compute1",
                  track="ingest", parent=q, start=3.0, detached=True)
    rec.link(w, t)
    rec.finish(w, at=4.0)
    rec.finish(q, at=5.0)
    rec.record_interval("s0.disk", 1.0, 3.0)
    tel.resource_nodes["s0.disk"] = "storage0"
    tel.metrics.counter("cache.hits").inc(3)
    tel.metrics.gauge("queue.s0.disk").set(1.0, 0.5)
    tel.metrics.gauge("queue.s0.disk").set(2.0, 0.0)
    tel.metrics.histogram("lat").observe(0.25)
    return tel


class TestChromeTrace:
    def test_one_process_per_node(self):
        doc = chrome_trace(small_telemetry())
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        # metrics get their own synthetic process alongside the nodes
        assert names == {"global", "storage0", "compute1", "metrics"}

    def test_span_events_carry_args_and_microseconds(self):
        doc = chrome_trace(small_telemetry())
        xfer = [ev for ev in doc["traceEvents"]
                if ev["ph"] == "X" and ev["name"] == "transfer"][0]
        assert xfer["ts"] == 1e6 and xfer["dur"] == 2e6
        assert xfer["args"]["bytes"] == 512
        assert "parent_id" in xfer["args"]

    def test_flow_events_paired_across_nodes(self):
        doc = chrome_trace(small_telemetry())
        starts = [ev for ev in doc["traceEvents"] if ev["ph"] == "s"]
        ends = [ev for ev in doc["traceEvents"] if ev["ph"] == "f"]
        assert len(starts) == len(ends) == 1
        assert starts[0]["id"] == ends[0]["id"]
        assert starts[0]["pid"] != ends[0]["pid"]  # storage0 → compute1

    def test_gauges_become_counter_events(self):
        doc = chrome_trace(small_telemetry())
        counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        assert [c["args"]["value"] for c in counters] == [0.5, 0.0]

    def test_resource_interval_grouped_under_owning_node(self):
        doc = chrome_trace(small_telemetry())
        pid_of = {
            ev["args"]["name"]: ev["pid"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        disk = [ev for ev in doc["traceEvents"]
                if ev["ph"] == "X" and ev["name"] == "s0.disk"][0]
        assert disk["pid"] == pid_of["storage0"]

    def test_metrics_embedded_in_other_data(self):
        doc = chrome_trace(small_telemetry())
        metrics = doc["otherData"]["metrics"]
        assert metrics["cache.hits"]["value"] == 3
        assert metrics["lat"]["count"] == 1

    def test_open_spans_omitted(self):
        tel = Telemetry()
        q = tel.recorder.begin("query", category="query", parent=None)
        tel.recorder.begin("dangling", parent=q, start=0.0)
        tel.recorder.finish(q, at=1.0)
        doc = chrome_trace(tel)
        names = [ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert names == ["query"]

    def test_write_creates_parent_dirs_and_is_deterministic(self, tmp_path):
        p1 = tmp_path / "deep" / "run1.json"
        p2 = tmp_path / "deep" / "run2.json"
        write_chrome_trace(small_telemetry(), p1)
        write_chrome_trace(small_telemetry(), p2)
        assert p1.read_text() == p2.read_text()


class TestTextDump:
    def test_sections_and_determinism(self):
        d1 = text_dump(small_telemetry())
        d2 = text_dump(small_telemetry())
        assert d1 == d2
        assert "== spans ==" in d1
        assert "== resources ==" in d1
        assert "== metrics ==" in d1
        assert "s0.disk: intervals=1 busy=2s" in d1
        assert "cache.hits counter value=3" in d1

    def test_tree_indentation_follows_depth(self):
        lines = text_dump(small_telemetry()).splitlines()
        query = [l for l in lines if l.startswith("query")][0]
        transfer = [l for l in lines if "transfer [transfer]" in l][0]
        assert not query.startswith(" ")
        assert transfer.startswith("  ")
        assert "{bytes=512}" in transfer
