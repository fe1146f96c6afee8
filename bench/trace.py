"""Spans, event counts and profile shares, all taken from outside ``src/``.

Three instruments, each a context manager that patches the program's
public callables on entry and restores the originals on exit:

* :class:`EventCounter` — wraps ``SimEngine.run`` only to register a
  C-level counter through the public ``add_monitor`` on every engine it
  sees (``run_point`` and the derived data source build theirs
  internally).  It is the one patch active in *untraced* repetitions:
  about 40 ns per event, well under 0.5 % of any workload's wall.
* :class:`SpanTracer` — a span at every layer boundary in
  :data:`BOUNDARIES`; parent = top of a stack (the program is
  single-threaded).  Hot boundaries are folded into per-layer
  count/busy/self totals as they close; the rest are also kept
  individually for ``trace_<workload>.json``.
* :func:`profile_shares` — one ``cProfile`` run folded by
  ``repro.<subpackage>`` / numpy / other, which also sees the generator
  bodies (QES and server processes) that boundary spans cannot.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import itertools
import pstats
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BOUNDARIES",
    "PILOT_LAYER",
    "ROOT_LAYER",
    "SHARE_PACKAGES",
    "EventCounter",
    "SpanTracer",
    "profile_shares",
]

#: (module, owner class or None, attribute, layer, hot)
BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("repro.cluster.events", "SimEngine", "run", "cluster.events", False),
    ("repro.metadata.rtree", "RTree", "insert", "metadata.rtree", True),
    ("repro.metadata.rtree", "RTree", "search", "metadata.rtree", True),
    ("repro.metadata.service", "TableCatalog", "find_chunks", "metadata.service", True),
    ("repro.services.cache", "CachingService", "get", "services.cache", True),
    ("repro.services.cache", "CachingService", "put", "services.cache", True),
    ("repro.services.cache", "CachingService", "remove", "services.cache", True),
    ("repro.services.cache", "CachingService", "invalidate_from", "services.cache", True),
    ("repro.services.bds", "FunctionalProvider", "fetch", "services.bds", True),
    ("repro.storage.writer", "DatasetWriter", "write_table", "storage.writer", False),
    ("repro.joins.hash_join", None, "vectorized_hash_join", "joins.hash_join", True),
    ("repro.joins.join_index", None, "build_join_index", "joins.join_index", True),
    ("repro.joins.join_index", "PageJoinIndex", "restrict", "joins.join_index", True),
    ("repro.joins.scheduler", None, "schedule_two_stage", "joins.scheduler", True),
    ("repro.core.planner", "QueryPlanningService", "plan", "core.planner", True),
    ("repro.core.planner", "QueryPlanningService", "plan_scan", "core.planner", True),
    ("repro.core.engine", "DerivedDataSource", "execute", "core.engine", False),
    ("repro.core.engine", None, "assemble_result", "core.engine", True),
    ("repro.server.server", "ServerReport", "to_payload", "server.report", False),
    ("repro.server.observatory", "ServeObservatory", "finalize", "server.report", False),
    ("repro.observe.reuse", "AccessTraceRecorder", "analyze", "observe.reuse", False),
    ("repro.observe.reuse", None, "reuse_distances", "observe.reuse", False),
    ("repro.query.parser", None, "parse_query", "query", True),
    ("repro.query.executor", "QueryExecutor", "execute", "query", False),
    ("repro.experiments.runner", None, "run_point", "experiments", False),
)

#: The timed region itself; its self time is what no boundary covers.
ROOT_LAYER = "bench.root"
#: What the host-speed pilot's handler spent inside the region.
PILOT_LAYER = "bench.pilot"

SHARE_PACKAGES = (
    "cluster", "metadata", "services", "storage", "datamodel", "joins",
    "core", "server", "faults", "telemetry", "observe", "query",
    "workloads", "numpy", "other",
)


class _Patches:
    """Replace callables, remember the originals, put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_function(self, func: Callable, make: Callable[[Callable], Callable]) -> None:
        """Rebind ``func`` in every loaded repro/bench module that holds
        it under any name (``from x import f`` copies the reference)."""
        wrapped = make(func)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(("repro", "bench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.set(module, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(module: str, owner: Optional[str], attr: str):
    mod = importlib.import_module(module)
    holder = getattr(mod, owner) if owner else mod
    return holder, vars(holder)[attr]


class EventCounter:
    """Exact count of engine events dispatched while active."""

    def __init__(self) -> None:
        self._count = itertools.count()
        self._seen: "weakref.WeakSet" = weakref.WeakSet()
        self._patches = _Patches()
        #: set on exit
        self.dispatched = 0

    def __enter__(self) -> "EventCounter":
        holder, run = _resolve("repro.cluster.events", "SimEngine", "run")
        # next(counter, default) takes the monitor's clock argument as
        # the unused default, so every dispatch is one C call
        tick = functools.partial(next, self._count)
        seen = self._seen

        @functools.wraps(run)
        def counting_run(engine, *args, **kwargs):
            if engine not in seen:
                seen.add(engine)
                engine.add_monitor(tick)
            return run(engine, *args, **kwargs)

        self._patches.set(holder, "run", counting_run)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()
        self.dispatched = next(self._count)


class SpanTracer:
    """Boundary spans over one timed region."""

    def __init__(self) -> None:
        self._patches = _Patches()
        #: open spans: [layer, start, child_seconds, span_index or -1]
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        #: layer -> [calls, busy_s, self_s]
        self.layers: Dict[str, List[float]] = {}
        #: individually kept spans: name, layer, start, end, parent index
        self.spans: List[Dict[str, object]] = []
        #: join-kernel record counts (the boundary is the only place they
        #: can be counted without touching the kernel)
        self.records_in = 0
        self.records_out = 0

    # -- span bookkeeping ----------------------------------------------

    def _open(self, layer: str, name: str, keep: bool) -> None:
        index = -1
        if keep:
            parent = next(
                (frame[3] for frame in reversed(self._stack) if frame[3] >= 0), -1
            )
            index = len(self.spans)
            self.spans.append(
                {"name": name, "layer": layer, "start": 0.0, "end": 0.0,
                 "parent": parent}
            )
        self._depth[layer] = self._depth.get(layer, 0) + 1
        frame = [layer, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()

    def _close(self) -> None:
        end = time.perf_counter()
        layer, start, child, index = self._stack.pop()
        duration = end - start
        totals = self.layers.setdefault(layer, [0, 0.0, 0.0])
        totals[0] += 1
        totals[2] += duration - child
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            # busy is inclusive, so a span nested in its own layer
            # (execute -> parse_query) must not be counted twice
            totals[1] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            span = self.spans[index]
            span["start"], span["end"] = start, end

    def charge(self, layer: str, seconds: float) -> None:
        """Book ``seconds`` just spent outside the program (the host-speed
        pilot's handler) as a closed span of ``layer`` under whatever
        span is open, so that no program layer's self time carries it."""
        totals = self.layers.setdefault(layer, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += seconds
        totals[2] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def _wrapper(self, func: Callable, layer: str, name: str, keep: bool) -> Callable:
        open_span, close_span = self._open, self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            open_span(layer, name, keep)
            try:
                return func(*args, **kwargs)
            finally:
                close_span()

        return traced

    def _kernel_wrapper(self, func: Callable, layer: str, name: str) -> Callable:
        inner = self._wrapper(func, layer, name, keep=False)

        @functools.wraps(func)
        def counted(left, right, *args, **kwargs):
            result = inner(left, right, *args, **kwargs)
            self.records_in += left.num_records + right.num_records
            self.records_out += result[0].num_records
            return result

        return counted

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        for module, owner, attr, layer, hot in BOUNDARIES:
            holder, func = _resolve(module, owner, attr)
            name = f"{owner}.{attr}" if owner else attr
            if attr == "vectorized_hash_join":
                make = functools.partial(self._kernel_wrapper, layer=layer, name=name)
            else:
                make = functools.partial(
                    self._wrapper, layer=layer, name=name, keep=not hot
                )
            if owner:
                self._patches.set(holder, attr, make(func))
            else:
                self._patches.replace_function(func, make)
        self._open(ROOT_LAYER, "timed_region", keep=True)
        return self

    def __exit__(self, *exc) -> None:
        while self._stack:  # an exception may leave inner spans open
            self._close()
        self._patches.restore()

    # -- results -------------------------------------------------------

    def payload(self, scale: float = 1.0) -> Dict[str, object]:
        """JSON-ready trace: per-layer totals plus the kept spans, times
        relative to the root span's start and multiplied by ``scale``."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {
            "layers": {
                layer: {"calls": int(c), "busy_s": busy * scale, "self_s": own * scale}
                for layer, (c, busy, own) in sorted(self.layers.items())
            },
            "join_kernel": {
                "records_in": self.records_in, "records_out": self.records_out,
            },
            "spans": [
                {**span, "start": (span["start"] - origin) * scale,
                 "end": (span["end"] - origin) * scale}
                for span in self.spans
            ],
        }


def _package_of(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        rest = path.split("/repro/", 1)[1]
        package = rest.split("/", 1)[0] if "/" in rest else "other"
        return package if package in SHARE_PACKAGES else "other"
    if "/numpy/" in path or "numpy" in funcname:
        return "numpy"
    return "other"


def profile_shares(func: Callable[[], object]) -> Tuple[object, Dict[str, float]]:
    """Run ``func`` under cProfile; own-time share per package (sums to 1)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(func)
    own: Dict[str, float] = {package: 0.0 for package in SHARE_PACKAGES}
    for (filename, _line, funcname), row in pstats.Stats(profiler).stats.items():
        own[_package_of(filename, funcname)] += row[2]  # tottime
    total = sum(own.values()) or 1.0
    return result, {package: seconds / total for package, seconds in own.items()}
