"""Span recorder semantics: lifecycle, stacks, causality edges."""

import pytest

from repro.cluster import SimEngine
from repro.telemetry import NULL_SPAN, maybe_span
from repro.telemetry.spans import SpanRecorder


class TestLifecycle:
    def test_begin_finish_stamps_times(self):
        rec = SpanRecorder()
        s = rec.begin("work", start=1.0)
        assert s.start == 1.0 and s.end is None and not s.closed
        rec.finish(s, at=3.5)
        assert s.end == 3.5 and s.closed
        assert s.duration == 2.5

    def test_duration_of_open_span_raises(self):
        rec = SpanRecorder()
        s = rec.begin("work")
        with pytest.raises(ValueError, match="still open"):
            _ = s.duration

    def test_double_finish_raises(self):
        rec = SpanRecorder()
        s = rec.begin("work")
        rec.finish(s)
        with pytest.raises(ValueError, match="finished twice"):
            rec.finish(s)

    def test_end_before_start_raises(self):
        rec = SpanRecorder()
        s = rec.begin("work", start=5.0)
        with pytest.raises(ValueError, match="before its start"):
            rec.finish(s, at=4.0)

    def test_engineless_clock_is_zero(self):
        rec = SpanRecorder()
        assert rec.now() == 0.0
        s = rec.begin("work")
        assert s.start == 0.0

    def test_attrs_captured_and_ids_sequential(self):
        rec = SpanRecorder()
        a = rec.begin("a", bytes=100, chunk="c1")
        b = rec.begin("b")
        assert a.attrs == {"bytes": 100, "chunk": "c1"}
        assert b.span_id == a.span_id + 1
        assert rec.get(a.span_id) is a

    def test_open_spans_tracks_unfinished(self):
        rec = SpanRecorder()
        a = rec.begin("a")
        b = rec.begin("b")
        rec.finish(b)
        assert rec.open_spans() == [a]


class TestParenting:
    def test_stack_parenting_nests(self):
        rec = SpanRecorder()
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        assert inner.parent_id == outer.span_id
        rec.finish(inner)
        sibling = rec.begin("sibling")
        assert sibling.parent_id == outer.span_id

    def test_explicit_parent_none_makes_root(self):
        rec = SpanRecorder()
        rec.begin("outer")
        root = rec.begin("root", parent=None)
        assert root.parent_id is None

    def test_explicit_parent_crosses_stacks(self):
        rec = SpanRecorder()
        query = rec.begin("query", parent=None)
        rec.begin("unrelated")
        child = rec.begin("child", parent=query)
        assert child.parent_id == query.span_id

    def test_detached_span_not_on_stack(self):
        rec = SpanRecorder()
        outer = rec.begin("outer")
        det = rec.begin("write", parent=outer, detached=True)
        nxt = rec.begin("next")
        # the detached span never became the innermost open span
        assert nxt.parent_id == outer.span_id
        assert det.parent_id == outer.span_id

    def test_finish_out_of_order_pops_correct_span(self):
        rec = SpanRecorder()
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        rec.finish(outer)  # driver closes the outer one first
        assert rec.open_spans() == [inner]
        after = rec.begin("after")
        assert after.parent_id == inner.span_id

    def test_per_process_stacks_do_not_leak(self):
        eng = SimEngine()
        rec = SpanRecorder(eng)
        parents = {}

        def proc(name):
            span = rec.begin(name, parent=None)
            yield eng.timeout(1.0)
            child = rec.begin(f"{name}.child")
            parents[name] = child.parent_id
            yield eng.timeout(1.0)
            rec.finish(child)
            rec.finish(span)

        eng.process(proc("p0"))
        eng.process(proc("p1"))
        eng.run()
        roots = {s.name: s.span_id for s in rec.roots()}
        # each interleaved process adopted its own root, not the other's
        assert parents["p0"] == roots["p0"]
        assert parents["p1"] == roots["p1"]
        assert rec.open_spans() == []


class TestContextManager:
    def test_span_ctx_closes_on_exit(self):
        rec = SpanRecorder()
        with rec.span("work") as s:
            assert s.end is None
        assert s.closed

    def test_span_ctx_annotates_error_and_propagates(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("work") as s:
                raise RuntimeError("boom")
        assert s.closed
        assert s.attrs["error"] == "RuntimeError"

    def test_span_ctx_keeps_existing_error_attr(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("work") as s:
                s.attrs["error"] = "custom"
                raise RuntimeError("boom")
        assert s.attrs["error"] == "custom"

    def test_maybe_span_disabled_is_null_singleton(self):
        assert maybe_span(None, "anything", bytes=1) is NULL_SPAN
        with maybe_span(None, "anything") as s:
            assert s is None


class TestLinksAndQueries:
    def test_follows_from_link(self):
        rec = SpanRecorder()
        src = rec.begin("transfer", parent=None)
        dst = rec.begin("write", parent=None)
        rec.link(dst, src)
        assert dst.follows_from == [src.span_id]

    def test_record_interval_is_detached_resource_root(self):
        rec = SpanRecorder()
        rec.begin("outer")
        iv = rec.record_interval("disk0", 1.0, 4.0)
        assert iv.category == "resource"
        assert iv.parent_id is None
        assert iv.start == 1.0 and iv.end == 4.0
        assert iv.attrs == {}
        assert iv not in rec.open_spans()

    def test_record_interval_rejects_negative(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            rec.record_interval("disk0", 2.0, 1.0)

    def test_find_root_requires_exactly_one(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError, match="found 0"):
            rec.find_root("query")
        rec.begin("q1", category="query", parent=None)
        assert rec.find_root("query").name == "q1"
        rec.begin("q2", category="query", parent=None)
        with pytest.raises(ValueError, match="found 2"):
            rec.find_root("query")

    def test_iter_tree_depth_first_by_start(self):
        rec = SpanRecorder()
        root = rec.begin("root", parent=None, start=0.0)
        late = rec.begin("late", parent=root, start=5.0)
        early = rec.begin("early", parent=root, start=1.0)
        grand = rec.begin("grand", parent=early, start=2.0)
        walk = [(d, s.name) for d, s in rec.iter_tree(root)]
        assert walk == [
            (0, "root"), (1, "early"), (2, "grand"), (1, "late"),
        ]
