"""A minimal process-based discrete-event engine.

The engine follows the simpy model at a fraction of its surface: simulation
logic is written as generator functions that ``yield`` events; the engine
resumes a process when the event it waits on fires.  Four event kinds
cover everything the join algorithms need:

* :class:`Timeout` — fires after a fixed delay (all resource waits reduce
  to timeouts thanks to the reservation calculus in
  :mod:`repro.cluster.resources`);
* :class:`Process` — a running generator; itself an event that fires when
  the generator returns, so processes can wait on (join) other processes;
* :class:`AllOf` — barrier over a set of events (used for fork/join
  phases, e.g. "all storage nodes finished streaming");
* :class:`AnyOf` — race over a set of events (used to bound a transfer by
  a deadline or by a node-crash signal: whichever fires first settles the
  race).

Failure semantics (the substrate of the fault-injection subsystem in
:mod:`repro.faults`): an event may *fail* instead of succeeding
(:meth:`Event.fail`), in which case the stored exception is **thrown into**
every process waiting on it — a process models a recovery protocol simply
by catching the exception at its ``yield``.  A running process can also be
killed from outside via :meth:`Process.interrupt`, which throws
:class:`Interrupt` at its current wait point; an *uncaught* interrupt marks
the process event failed (the process was deliberately killed — anyone
joining it sees the interrupt), while every other uncaught exception still
propagates out of :meth:`SimEngine.run` so model bugs fail tests loudly.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a given
workload always produces the same trace.

Dispatch cost: one heap entry per fired event, and a fired event reaches
the generator it wakes in one call — the waiting process's callback is
its step body (:meth:`Process._resume`).  A timeout pushes its own heap
entry, and the tie-break is a sequence step fixed at construction.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimEngine",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for structural misuse of the engine (not model errors)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries why the process was killed (e.g. a
    :class:`repro.faults.ComputeNodeDown` instance for a simulated node
    crash).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __str__(self) -> str:  # pragma: no cover - diagnostic only
        return f"Interrupt({self.cause!r})"


class Event:
    """Something that will happen at a simulated instant.

    An event starts *pending*; :meth:`succeed` marks it triggered and
    schedules its callbacks at the current simulation time, while
    :meth:`fail` marks it triggered with an exception that is thrown into
    waiting processes.  Events carry an optional value delivered to resumed
    processes (for a failed event the value *is* the exception).
    """

    __slots__ = ("engine", "callbacks", "_triggered", "_ok", "_value")

    def __init__(self, engine: "SimEngine"):
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._ok = True
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        if not self._triggered:
            raise SimulationError("event outcome read before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self.engine._schedule(self.engine.now, self._run_callbacks)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every process waiting on this event at
        the current instant.  A failed event nobody waits on is silently
        discarded (an abandoned race loser, a killed background activity).
        """
        if not isinstance(exc, BaseException):
            raise ValueError(f"fail() needs an exception, got {type(exc).__name__}")
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.engine._schedule(self.engine.now, self._run_callbacks)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:
        state = "pending"
        if self._triggered:
            state = "ok" if self._ok else f"failed({self._value!r})"
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """Event that fires ``delay`` seconds after creation."""

    __slots__ = ("at",)

    def __init__(self, engine: "SimEngine", delay: float):
        # ``not >=`` refuses NaN too, which would move the clock to NaN
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._ok = True
        self._value: Any = None
        #: absolute simulation time at which this timeout fires
        self.at = at = engine.now + delay
        # never in the past, so the heap entry is pushed without the check
        seq = engine._seq
        heappush(engine._queue, (at, seq, self._fire))
        engine._seq = seq + engine._seq_step

    def _fire(self) -> None:
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:
        state = "fired" if self._triggered else "pending"
        return f"<Timeout at={self.at:g} {state}>"


class Process(Event):
    """A generator being driven by the engine.

    The generator may ``yield`` any :class:`Event`; it is resumed with the
    event's value — or, if the event *failed*, the event's exception is
    thrown into it at the yield point, so recovery logic is an ordinary
    ``try/except`` around a ``yield``.  When the generator returns, the
    process event fires with the return value.

    Uncaught exceptions raised inside a process propagate out of
    :meth:`SimEngine.run` — model bugs fail tests loudly instead of
    silently deadlocking — with one exception: an uncaught
    :class:`Interrupt` (the process was deliberately killed) *fails* the
    process event instead, so joiners observe the death while the
    simulation carries on.

    ``contain`` widens that carve-out to the given exception classes: an
    uncaught instance of a contained class also *fails* the process event
    instead of propagating.  The query server runs executions as contained
    processes so a fault that exhausts every recovery path kills *that
    query's* process tree (observed by whoever joins it) without tearing
    down the whole serving simulation.  Model bugs — anything outside the
    contained classes — still propagate loudly.
    """

    __slots__ = ("_gen", "name", "_target", "contain")

    def __init__(
        self,
        engine: "SimEngine",
        gen: Generator[Event, Any, Any],
        name: str = "",
        contain: tuple = (),
    ):
        super().__init__(engine)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: exception classes that fail this process event instead of
        #: propagating out of the engine when raised uncaught inside it
        self.contain = tuple(contain)
        # the start is a resumption by an event that succeeded with None
        start = Event(engine)
        start._triggered = True
        #: the event this process is currently waiting on (wait token: a
        #: resumption is only valid while its event is still the target)
        self._target: Optional[Event] = start
        engine._live[self] = None
        engine._schedule(engine.now, lambda: self._resume(start))

    def interrupt(self, cause: Any = None) -> bool:
        """Kill or poke this process: throw :class:`Interrupt` at its
        current wait point at the current simulation time.

        Returns ``False`` (and does nothing) when the process has already
        completed — interrupting the dead is a no-op, which lets fault
        injectors kill every process registered for a node without
        tracking which ones already finished.
        """
        if self._triggered:
            return False
        self.engine._schedule(self.engine.now, lambda: self._deliver_interrupt(cause))
        return True

    def _deliver_interrupt(self, cause: Any) -> None:
        if self._triggered:
            return  # died (or finished) between scheduling and delivery
        # a failed event carrying the interrupt becomes the target, which
        # detaches the process from whatever it was waiting on
        intr = Event(self.engine)
        intr._triggered, intr._ok, intr._value = True, False, Interrupt(cause)
        self._target = intr
        self._resume(intr)

    def _finish(self, ok: bool, value: Any) -> None:
        self.engine._live.pop(self, None)
        if ok:
            self.succeed(value)
        else:
            self.fail(value)

    def _resume(self, ev: Event) -> None:
        """The step body: deliver ``ev``'s outcome to the generator — its
        value sent, or its exception thrown in — and wait on the event it
        yields next.  A wake-up by anything but the current target is
        stale (the process was interrupted, or finished, meanwhile)."""
        if self._target is not ev:
            return
        self._target = None
        engine = self.engine
        prev = engine.current_process
        engine.current_process = self
        try:
            if ev._ok:
                target = self._gen.send(ev._value)
            else:
                target = self._gen.throw(ev._value)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except Interrupt as intr:
            # deliberately killed and chose not to recover: fail the
            # process event so joiners see the death; the simulation lives
            self._finish(False, intr)
            return
        except Exception as exc:
            if self.contain and isinstance(exc, self.contain):
                # a tolerated failure class: fail the process event so
                # joiners observe it, exactly like an uncaught interrupt
                self._finish(False, exc)
                return
            # With concurrent background processes (e.g. the pipelined
            # Indexed Join's prefetchers) a raw traceback no longer
            # identifies the failing logical activity — annotate it.
            exc.add_note(f"(raised in simulated process {self.name!r})")
            raise
        finally:
            engine.current_process = prev
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, not an Event"
            )
        self._target = target
        if target._triggered:
            # already done: resume at the current instant (not recursively,
            # to keep stack depth bounded on long chains)
            engine._schedule(engine.now, lambda: self._resume(target))
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "done" if self._triggered else "running"
        return f"<Process {self.name!r} {state}>"


class AllOf(Event):
    """Barrier: fires when every child event has fired.

    Value is the list of child values in the order given.  An empty child
    list fires immediately (a barrier over nothing).  If any child *fails*,
    the barrier fails with that child's exception (first failure wins).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "SimEngine", events: Iterable[Event]):
        super().__init__(engine)
        self._children = list(events)
        self._remaining = 0
        for ev in self._children:
            if not ev._triggered:
                self._remaining += 1
                ev.callbacks.append(self._child_done)
        failed = next(
            (ev for ev in self._children if ev._triggered and not ev._ok), None
        )
        if failed is not None:
            self.fail(failed._value)
        elif self._remaining == 0:
            self.succeed([ev._value for ev in self._children])

    def _child_done(self, ev: Event) -> None:
        if self._triggered:
            return  # already failed on an earlier child
        if not ev._ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Race: fires as soon as the *first* child event fires.

    The race's value (or failure) is the winning child's; losers are
    abandoned — their later outcomes, including failures, are discarded.
    :attr:`first_index` records which child won, so a caller racing a
    transfer against a deadline can tell data from timeout:

    .. code-block:: python

        race = engine.any_of([transfer, engine.timeout(deadline)])
        yield race
        if race.first_index == 1:
            ...  # deadline hit first

    Children already triggered at construction win immediately, earliest
    listed first.
    """

    __slots__ = ("_children", "first_index")

    def __init__(self, engine: "SimEngine", events: Iterable[Event]):
        super().__init__(engine)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf needs at least one event")
        #: index of the winning child (None until the race settles)
        self.first_index: Optional[int] = None
        for i, ev in enumerate(self._children):
            if ev._triggered:
                self._settle(i, ev)
                return
        for i, ev in enumerate(self._children):
            ev.callbacks.append(lambda e, i=i: self._settle(i, e))

    def _settle(self, i: int, ev: Event) -> None:
        if self._triggered:
            return  # race already won by an earlier child
        self.first_index = i
        if ev._ok:
            self.succeed(ev._value)
        else:
            self.fail(ev._value)


class SimEngine:
    """Time-ordered event queue and the simulation clock.

    ``tie_break`` selects the order of *same-instant* events: ``"fifo"``
    (the contract — scheduling order, via a monotonic sequence number) or
    ``"reversed"`` (LIFO among equal-time events).  Reversed ties exist
    solely for the runtime sanitizer: any observable the simulation is
    entitled to report must be invariant under the tie-break, so a shadow
    run with reversed ties that diverges has found code depending on
    same-timestamp scheduling order.
    """

    def __init__(self, tie_break: str = "fifo") -> None:
        if tie_break not in ("fifo", "reversed"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.tie_break = tie_break
        self.now: float = 0.0
        self._queue: List = []
        #: the next heap entry's tie key, and what each entry adds to it:
        #: ascending keys fire same-instant entries in scheduling order,
        #: descending ones in reverse
        self._seq = 0
        self._seq_step = 1 if tie_break == "fifo" else -1
        #: live (not yet completed) processes, in spawn order — the
        #: substrate of the deadlock diagnostic
        self._live: Dict[Process, None] = {}
        #: cluster-layer observers (see :meth:`subscribe`); emit sites test
        #: the list's truth first, so an unwatched run builds no arguments
        self._subscribers: List[Callable[..., None]] = []
        #: dispatch observers (see :meth:`add_monitor`)
        self._monitors: List[Callable[[float], None]] = []
        #: the :class:`Process` whose generator is currently executing —
        #: the span recorder keys its per-process span stacks on this
        self.current_process: Optional[Process] = None

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, at: float, fn: Callable[[], None]) -> None:
        if at < self.now:
            raise SimulationError(f"scheduling into the past: {at} < {self.now}")
        seq = self._seq
        heappush(self._queue, (at, seq, fn))
        self._seq = seq + self._seq_step

    # -- public API --------------------------------------------------------------

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(
        self,
        gen: Generator[Event, Any, Any],
        name: str = "",
        contain: tuple = (),
    ) -> Process:
        return Process(self, gen, name=name, contain=contain)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def event(self) -> Event:
        """A bare event triggered manually (for signalling)."""
        return Event(self)

    def fail_after(self, delay: float, exc: BaseException) -> Event:
        """An event that *fails* with ``exc`` after ``delay`` seconds.

        The fault injector uses this to model operations that burn their
        full service time and then report an error (a transfer that dies
        on the last packet), and ``delay=0`` for fail-fast refusals
        (requesting a chunk from a node already known dead).
        """
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        ev = self.event()
        self._schedule(self.now + delay, lambda: ev.fail(exc))
        return ev

    def pending_processes(self) -> List[Process]:
        """Processes spawned but not yet completed, in spawn order."""
        return [p for p in self._live if not p._triggered]

    def subscribe(self, fn: Callable[..., None]) -> None:
        """Register ``fn(kind, *fields)``, called after the state change of
        every cluster-layer operation — the one attach point for whatever
        watches that layer (DESIGN.md §13 has emit sites and ordering):

        * ``reserve``: resource name, ``now``, ``start``, ``end``, ``nbytes``;
        * ``transfer``: source and destination fabric ids, ``nbytes``;
        * ``storage_read``: the event its reader waits on, storage node,
          compute node, ``nbytes``;
        * ``fault``: name, node, bandwidth factor (``None`` for a crash).

        A callable equal to one already subscribed is dropped (the cache's
        rule).  Subscribers only read.
        """
        if fn not in self._subscribers:
            self._subscribers.append(fn)

    def _emit(self, kind: str, *fields: Any) -> None:
        for fn in self._subscribers:
            fn(kind, *fields)

    def add_monitor(self, fn: Callable[[float], None]) -> None:
        """Register ``fn(now)`` to run on every event dispatch in
        :meth:`run`, before the event's callback, in registration order
        (the sanitizer's monotonicity probe, the benchmark's event
        counter)."""
        self._monitors.append(fn)

    def run(self) -> float:
        """Drain the queue; return the time of the last event."""
        queue, monitors = self._queue, self._monitors
        while queue:
            at, _, fn = heappop(queue)
            self.now = at
            for mon in monitors:
                mon(at)
            fn()
        return self.now

    def drive(self, proc: Process) -> Any:
        """Drain the queue until ``proc`` (already spawned) completes and
        return its value.

        A deadlock (the queue drained but the process never completed)
        raises :class:`SimulationError` enumerating every still-pending
        named process and the event each is blocked on — with fault
        injection able to strand processes, "who is waiting on what" is
        the first question a deadlock report must answer.
        """
        self.run()
        if not proc.triggered:
            lines = [
                f"deadlock: process {proc.name!r} never completed "
                "(waiting on an event nobody triggers)"
            ]
            pending = self.pending_processes()
            if pending:
                lines.append("pending processes:")
                for p in pending:
                    blocked_on = (
                        repr(p._target) if p._target is not None else "nothing (runnable)"
                    )
                    lines.append(f"  - {p.name!r} blocked on {blocked_on}")
            raise SimulationError("\n".join(lines))
        if not proc.ok:
            raise SimulationError(
                f"process {proc.name!r} was killed: {proc.value!r}"
            ) from (proc.value if isinstance(proc.value, BaseException) else None)
        return proc.value
