"""The engine against its frozen predecessor (``reference_engine.py``).

A drawn *program* is a handful of processes, each a list of operations:
zero and positive timeouts, waits on shared signals that other processes
succeed or fail, ``all_of``/``any_of`` over signals, timeouts, processes
and ``fail_after`` events, joins on other processes (finished or not),
and interrupts of other processes — often at the very instant a resume of
theirs is already scheduled, since the delays are few and collide.  Some
waits are unguarded, so an interrupt or a failed signal kills the process
(its failure class is contained, so the simulation lives on).

Run on both engines under each tie-break, a program must give the same
trace — ``(now, process, value or exception)`` at every resumption, each
process's end and the final clock — and the same number of dispatched
events.  ``REPRO_ENGINE_EXAMPLES`` multiplies the example budget (CI runs
the module at 10); tier-1 keeps the default of 1.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import events

from . import reference_engine

SCALE = int(os.environ.get("REPRO_ENGINE_EXAMPLES", "1"))

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])


class SignalFailed(Exception):
    """What a failed signal or ``fail_after`` event throws."""


def _outcome(value):
    if isinstance(value, BaseException):
        return ("exception", type(value).__name__, tuple(map(repr, value.args)))
    return ("value", repr(value))


def run_program(engine_module, program, tie_break):
    """The trace and dispatch count of ``program`` on one engine."""
    eng = engine_module.SimEngine(tie_break=tie_break)
    dispatched = [0]

    def count(_now):
        dispatched[0] += 1

    eng.add_monitor(count)
    n_procs, n_signals, bodies = program
    signals = [eng.event() for _ in range(n_signals)]
    procs = []
    trace = []

    def make(target, pid):
        kind, arg = target
        if kind == "sig":
            return signals[arg]
        if kind == "timeout":
            return eng.timeout(arg)
        if kind == "proc":
            return procs[arg]
        return eng.fail_after(arg, SignalFailed(f"after {arg}"))

    def body(pid, ops):
        for op in ops:
            kind = op[0]
            if kind == "succeed":
                if not signals[op[1]].triggered:
                    signals[op[1]].succeed(f"s{op[1]} by p{pid}")
                continue
            if kind == "fail":
                if not signals[op[1]].triggered:
                    signals[op[1]].fail(SignalFailed(f"s{op[1]} by p{pid}"))
                continue
            if kind == "interrupt":
                trace.append((eng.now, pid, "interrupt", op[1], procs[op[1]].interrupt(f"p{pid}")))
                continue
            if kind == "timeout":
                ev = eng.timeout(op[1])
            elif kind == "wait":
                ev = signals[op[1]]
            elif kind == "join":
                ev = procs[op[1]]
            elif kind == "fail_after":
                ev = eng.fail_after(op[1], SignalFailed(f"after {op[1]}"))
            else:
                children = [make(t, pid) for t in op[1]]
                ev = eng.all_of(children) if kind == "all_of" else eng.any_of(children)
            if not op[-1]:  # unguarded: an interrupt or a failure kills
                value = yield ev
                trace.append((eng.now, pid, kind, _outcome(value)))
                continue
            try:
                value = yield ev
            except Exception as exc:
                trace.append((eng.now, pid, kind, _outcome(exc)))
            else:
                first = ev.first_index if kind == "any_of" else None
                trace.append((eng.now, pid, kind, _outcome(value), first))
        return f"p{pid} done"

    for pid in range(n_procs):
        procs.append(eng.process(
            body(pid, bodies[pid]), name=f"p{pid}",
            contain=(SignalFailed, engine_module.SimulationError),
        ))
    try:
        eng.run()
        crashed = None
    except Exception as exc:  # must crash identically, if at all
        crashed = _outcome(exc)
    ends = [
        (p.name, p.triggered, p.triggered and p.ok, _outcome(p.value) if p.triggered else None)
        for p in procs
    ]
    pending = [p.name for p in eng.pending_processes()]
    return trace, ends, pending, crashed, eng.now, dispatched[0]


@st.composite
def programs(draw):
    n_procs = draw(st.integers(1, 5))
    n_signals = draw(st.integers(1, 3))
    pid = st.integers(0, n_procs - 1)
    sig = st.integers(0, n_signals - 1)
    guarded = st.booleans()
    target = st.one_of(
        st.tuples(st.just("sig"), sig),
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(st.just("proc"), pid),
        st.tuples(st.just("fail_after"), DELAYS),
    )
    op = st.one_of(
        st.tuples(st.just("timeout"), DELAYS, guarded),
        st.tuples(st.just("wait"), sig, guarded),
        st.tuples(st.just("succeed"), sig),
        st.tuples(st.just("fail"), sig),
        st.tuples(st.just("all_of"), st.lists(target, max_size=3), guarded),
        st.tuples(st.just("any_of"), st.lists(target, min_size=1, max_size=3), guarded),
        st.tuples(st.just("interrupt"), pid),
        st.tuples(st.just("join"), pid, guarded),
        st.tuples(st.just("fail_after"), DELAYS, guarded),
    )
    bodies = [draw(st.lists(op, max_size=7)) for _ in range(n_procs)]
    return n_procs, n_signals, bodies


@pytest.mark.parametrize("tie_break", ["fifo", "reversed"])
@settings(max_examples=150 * SCALE, deadline=None)
@given(program=programs())
def test_engine_replays_the_reference_engine(program, tie_break):
    assert run_program(events, program, tie_break) == run_program(
        reference_engine, program, tie_break
    )


def test_a_fixed_program_hits_the_cases_the_draws_are_for():
    """p1 succeeds the signal p0 waits on and interrupts p0 at the same
    instant, then joins p2, which finished long before.  Under ``fifo`` p0
    takes the signal and dies in its unguarded timeout; under ``reversed``
    the interrupt lands first and the signal's wake-up, already due, is
    stale."""
    program = (3, 1, [
        [("timeout", 1.0, True), ("wait", 0, True), ("timeout", 2.5, False)],
        [("timeout", 1.0, True), ("succeed", 0), ("interrupt", 0), ("join", 2, True)],
        [("timeout", 0.0, True)],
    ])
    runs = {}
    for tie_break in ("fifo", "reversed"):
        runs[tie_break] = run_program(events, program, tie_break)
        assert runs[tie_break] == run_program(reference_engine, program, tie_break)
        trace, ends, pending, crashed, now, dispatched = runs[tie_break]
        assert crashed is None and pending == [] and now == 3.5 and dispatched == 13
        assert (1.0, 1, "join", ("value", "'p2 done'"), None) in trace
    killed = ("exception", "Interrupt", ("'p1'",))
    assert runs["fifo"][1][0] == ("p0", True, False, killed)
    assert (1.0, 0, "wait", killed) in runs["reversed"][0]
    assert runs["reversed"][1][0] == ("p0", True, True, ("value", "'p0 done'"))
