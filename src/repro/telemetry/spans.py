"""Causal span tracing against the simulated clock.

A :class:`Span` is a named interval of simulated time with structured
attributes, a parent (hierarchy), and optional ``follows_from`` edges
(cross-node causality: a transfer span executed on a storage node
*follows from* the joiner-side fetch that awaited it).  Spans are opened
through :class:`SpanRecorder` — usually via the :meth:`SpanRecorder.span`
context manager — and stamped with ``engine.now`` on entry and exit, so
the recorded trace is exactly as deterministic as the simulation itself.

Parentage is resolved per *simulated process*: each
:class:`~repro.cluster.events.Process` carries its own span stack (keyed
by :attr:`SimEngine.current_process`), so two joiners interleaving on the
event loop never adopt each other's spans.  Code running outside any
process (the driver building a query) shares one root stack.

When telemetry is disabled nothing here runs: call sites guard with
:func:`maybe_span`, which returns the allocation-free :data:`NULL_SPAN`
singleton instead of constructing a span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanCtx",
    "SpanRecorder",
    "OverlapError",
    "NULL_SPAN",
    "maybe_span",
    "TERM_OF_CATEGORY",
]

#: Maps a span category to the analytic cost-model term it accounts for.
#: Used by critical-path attribution (`CriticalPath.by_term`) so a trace
#: can be compared against the paper's `Transfer + Cpu + ...` models.
TERM_OF_CATEGORY: Dict[str, str] = {
    "transfer": "Transfer",
    "cpu-build": "Cpu",
    "cpu-probe": "Cpu",
    "scratch-write": "Write",
    "scratch-read": "Read",
    "wait": "Wait",
    "control": "Other",
    "query": "Other",
    "resource": "Other",
    "fault": "Other",
}


class OverlapError(ValueError):
    """Two intervals on one serial resource overlap — a reservation bug."""


@dataclass(eq=False)
class Span:
    """One named interval of simulated time in the span DAG.

    ``eq=False`` keeps identity semantics: spans live on per-process
    stacks and in parent/child lists, and removal must never compare
    attribute dicts.
    """

    span_id: int
    name: str
    category: str
    node: str
    track: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    follows_from: List[int] = field(default_factory=list)
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} (#{self.span_id}) is still open")
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def term(self) -> str:
        return TERM_OF_CATEGORY.get(self.category, "Other")


class _NullSpan:
    """Do-nothing stand-in returned by :func:`maybe_span` when disabled.

    A singleton with no state: entering yields ``None``, so the
    disabled path of ``with maybe_span(tel, ...):`` touches no span
    machinery.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = _NullSpan()

#: Sentinel distinguishing "no parent given, use the stack" from an
#: explicit ``parent=None`` (a root span).
_AUTO = object()


class SpanCtx:
    """Context manager wrapper that closes a span at scope exit.

    On exception the span is annotated with ``error=<type name>`` before
    closing, so aborted work (interrupted joiners, failed transfers) is
    visible in the trace; the exception itself propagates.
    """

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and "error" not in self.span.attrs:
            self.span.attrs["error"] = exc_type.__name__
        self._recorder.finish(self.span)
        return None


class SpanRecorder:
    """Records the span DAG for one simulated run.

    The recorder never schedules events or draws randomness: it only
    observes the clock.  A traced run therefore produces byte-identical
    query output to an untraced one.
    """

    def __init__(self, engine=None) -> None:
        self.engine = engine
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        #: span stacks keyed by the simulated process that opened them
        #: (``None`` for code outside any process).
        self._stacks: Dict[Any, List[Span]] = {}
        #: which stack each open span sits on, so ``finish`` works from
        #: any context (e.g. a driver closing the partition span that
        #: the query setup opened).
        self._stack_key: Dict[int, Any] = {}
        self._next_id = 0
        #: end of the last interval recorded per resource
        self._resource_end: Dict[str, float] = {}

    # -- clock / context -------------------------------------------------

    def now(self) -> float:
        return 0.0 if self.engine is None else self.engine.now

    def _context_key(self) -> Any:
        if self.engine is None:
            return None
        return self.engine.current_process

    # -- span lifecycle --------------------------------------------------

    def begin(
        self,
        name: str,
        *,
        category: str = "control",
        node: str = "global",
        track: str = "main",
        parent: Any = _AUTO,
        start: Optional[float] = None,
        detached: bool = False,
        **attrs: Any,
    ) -> Span:
        """Open a span at the current simulated time.

        ``parent`` defaults to the innermost open span of the current
        process; pass an explicit :class:`Span` to cross process
        boundaries, or ``None`` for a root.  ``detached`` spans take a
        parent but do not join the stack — used for work completed by an
        event callback rather than in the opening scope (e.g. Grace Hash
        scratch writes posted fire-and-forget).
        """
        if parent is _AUTO:
            stack = self._stacks.get(self._context_key())
            parent_span: Optional[Span] = stack[-1] if stack else None
        else:
            parent_span = parent
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            node=node,
            track=track,
            start=self.now() if start is None else start,
            parent_id=None if parent_span is None else parent_span.span_id,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if not detached:
            key = self._context_key()
            self._stacks.setdefault(key, []).append(span)
            self._stack_key[span.span_id] = key
        return span

    def finish(self, span: Span, at: Optional[float] = None) -> Span:
        """Close ``span`` at the current time (or an explicit ``at``)."""
        if span.end is not None:
            raise ValueError(
                f"span {span.name!r} (#{span.span_id}) finished twice"
            )
        end = self.now() if at is None else at
        if end < span.start:
            raise ValueError(
                f"span {span.name!r} (#{span.span_id}) would end at "
                f"{end} before its start {span.start}"
            )
        span.end = end
        key = self._stack_key.pop(span.span_id, _AUTO)
        if key is not _AUTO:
            stack = self._stacks.get(key, [])
            if span in stack:
                stack.remove(span)
        return span

    def abandon(self, span: Span, error: str) -> None:
        """Close ``span`` now — whatever would have finished it was killed
        — with every open *detached* span directly beneath it (left to
        their callbacks they would outlive it), each annotated ``error=``
        like a :class:`SpanCtx` exit.  Closed spans are left alone."""
        for s in (span, *self.children_of(span)):
            if s.end is None and (s is span or s.span_id not in self._stack_key):
                s.attrs.setdefault("error", error)
                self.finish(s)

    def span(
        self,
        name: str,
        *,
        category: str = "control",
        node: str = "global",
        track: str = "main",
        parent: Any = _AUTO,
        **attrs: Any,
    ) -> SpanCtx:
        """Context-manager form of :meth:`begin`/:meth:`finish`."""
        return SpanCtx(
            self,
            self.begin(
                name,
                category=category,
                node=node,
                track=track,
                parent=parent,
                **attrs,
            ),
        )

    def record_interval(self, resource: str, start: float, end: float) -> Span:
        """Record a closed resource-occupancy interval as a root span.

        The telemetry hub calls this once per ``reserve`` event: every
        bandwidth reservation is a ``category="resource"`` span outside
        the causal tree.  A resource is a serial FIFO server, so an
        interval starting before the previous one on it ended is a
        reservation bug: :class:`OverlapError`.
        """
        if end < start:
            raise ValueError(
                f"interval on {resource!r} ends at {end} before start {start}"
            )
        last = self._resource_end.get(resource, start)
        if start < last:
            raise OverlapError(
                f"overlapping reservations on serial resource {resource!r}: "
                f"[{start:g}, {end:g}] starts before the previous one ended "
                f"at {last:g}"
            )
        self._resource_end[resource] = end
        span = self.begin(
            resource,
            category="resource",
            node=resource,
            track=resource,
            parent=None,
            start=start,
            detached=True,
        )
        span.end = end
        return span

    def link(self, span: Span, follows: Span) -> None:
        """Add a ``follows_from`` causality edge: ``span`` ← ``follows``."""
        span.follows_from.append(follows.span_id)

    # -- queries ---------------------------------------------------------

    def get(self, span_id: int) -> Span:
        return self._by_id[span_id]

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is None]

    def children_of(self, span: Span) -> List[Span]:
        sid = span.span_id
        return [s for s in self.spans if s.parent_id == sid]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find_root(self, category: str = "query") -> Span:
        roots = [s for s in self.roots() if s.category == category]
        if len(roots) != 1:
            raise ValueError(
                f"expected exactly one {category!r} root span, "
                f"found {len(roots)}"
            )
        return roots[0]

    def iter_tree(self, span: Span) -> Iterator[Tuple[int, Span]]:
        """Depth-first (depth, span) walk ordered by (start, span_id)."""

        def _walk(s: Span, depth: int) -> Iterator[Tuple[int, Span]]:
            yield depth, s
            for child in sorted(
                self.children_of(s), key=lambda c: (c.start, c.span_id)
            ):
                yield from _walk(child, depth + 1)

        yield from _walk(span, 0)


def maybe_span(tel, name: str, **kwargs: Any):
    """``tel.recorder.span(...)`` when telemetry is on, else a no-op.

    The disabled branch touches no span machinery at all — it returns
    the shared :data:`NULL_SPAN` singleton.  Its keyword arguments are
    still built by the caller, so this form is for sites that run a few
    times per execution; a site on a per-pair or per-chunk path (the
    Indexed Join's joiner loop, ``QES._charge_cpu``, Grace Hash's
    streamer) writes ``with NULL_SPAN if tel is None else
    tel.recorder.span(...)`` so that with tracing off it formats no
    name, stringifies no id and allocates nothing.
    """
    if tel is None:
        return NULL_SPAN
    return tel.recorder.span(name, **kwargs)
