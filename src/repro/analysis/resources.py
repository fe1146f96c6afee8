"""Resource-protocol (typestate) rules R001–R004.

The serving contract says a query's resources are bracketed: every cache
pin is released, every staging reservation taken or cancelled, every
admission slot handed back, every lifecycle event triggered exactly once,
every ledger byte claimed only for work that completed.  The runtime
sanitizer checks all of this *after* the bug has run; these rules prove
the same protocols over the control-flow graph (:mod:`.cfg`), a forward
typestate dataflow (:mod:`.dataflow`) and intra-module call summaries
(:mod:`.summaries`), so a violation fails lint before it ever executes.

The unwind model matches the engine: faults reach a process as exceptions
thrown into its generator at a yield, so "every path" includes the unwind
path out of each suspension point.  A resource held across zero yields is
atomic in simulated time and needs no guard; one held across a yield must
be released by a ``finally``/``except`` or carried by a context manager.

All four rules are scope ``"src"``: tests deliberately build half-open
protocol states (a leaked pin to provoke the sanitizer, an event that
never fires to pin deadlock reporting) and must stay free to do so.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, CFGNode, build_cfg
from repro.analysis.dataflow import State, solve
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.protocol import _is_event_ctor
from repro.analysis.rules import FileContext, Rule, dotted_name, register
from repro.analysis.summaries import (
    ModuleSummaries,
    is_transfer_call,
    summarize_module,
)

__all__ = [
    "PinLeakRule",
    "SlotLeakRule",
    "EventProtocolRule",
    "EarlyLedgerClaimRule",
]

_PIN_ACQUIRES = {"pin", "acquire"}
_PIN_RELEASES = {"unpin", "release", "close"}
_STAGE_ACQUIRE = "prefetch_begin"
_STAGE_RELEASES = {
    "prefetch_cancel",
    "prefetch_complete",
    "take_prefetched",
}
_TERMINALS = {"succeed", "fail"}
#: byte-ledger attributes whose += is a claim of completed work
_LEDGER_ATTRS = {
    "bytes_from_storage",
    "_bytes_from_storage",
    "bytes_scratch_written",
    "bytes_scratch_read",
}


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _param_names(func: ast.AST) -> Set[str]:
    args = func.args
    names = {a.arg for a in args.posonlyargs}
    names |= {a.arg for a in args.args}
    names |= {a.arg for a in args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _walk_parts(node: CFGNode) -> Iterator[ast.AST]:
    for part in node.parts:
        if part is not None:
            yield from ast.walk(part)


def _calls_in(node: CFGNode) -> Iterator[ast.Call]:
    for sub in _walk_parts(node):
        if isinstance(sub, ast.Call):
            yield sub


def _keyword_true(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


def _recv_name(call: ast.Call) -> Optional[str]:
    """Simple-name receiver of a method call (``recv.meth(...)``)."""
    if isinstance(call.func, ast.Attribute) and isinstance(
        call.func.value, ast.Name
    ):
        return call.func.value.id
    return None


def _test_acquire_polarity(test: ast.expr, call: ast.Call) -> Optional[bool]:
    """For an acquire used as an if-condition: the branch polarity on
    which the acquisition actually happened (``if recv.prefetch_begin``
    → True branch; ``if not recv.prefetch_begin`` → False branch)."""
    if test is call:
        return True
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        if test.operand is call:
            return False
    return None


def _assume_succ(header: CFGNode, cfg: CFG, polarity: bool) -> Optional[CFGNode]:
    for edge in header.succs:
        succ = cfg.nodes[edge.dst]
        if succ.kind == "assume" and succ.assume is not None:
            if succ.assume[1] is polarity:
                return succ
    return None


class _Obligation:
    """One tracked acquisition: token, origin, and what discharges it."""

    __slots__ = ("token", "call", "recv", "family", "what")

    def __init__(self, token: str, call: ast.Call, recv: str, family: str,
                 what: str):
        self.token = token
        self.call = call
        self.recv = recv
        self.family = family  # "pin" | "stage" | "slot"
        self.what = what  # human label for the message


class _GenKill:
    """Per-node gen/kill sets driving the typestate transfer function."""

    def __init__(self) -> None:
        self.gen: Dict[int, Set[str]] = {}
        self.kill: Dict[int, Set[str]] = {}

    def add_gen(self, nid: int, token: str) -> None:
        self.gen.setdefault(nid, set()).add(token)

    def add_kill(self, nid: int, token: str) -> None:
        self.kill.setdefault(nid, set()).add(token)

    def transfer(self, node: CFGNode, state: State) -> State:
        out = set(state)
        out -= self.kill.get(node.id, set())
        out |= self.gen.get(node.id, set())
        return frozenset(out)

    def kills(self, token: str) -> bool:
        return any(token in killed for killed in self.kill.values())


def _helper_args(call: ast.Call, summaries: ModuleSummaries, fact: str) -> Set[str]:
    """Argument names a call to a summarized local helper passes to the
    parameters of its ``fact`` (``releases_pin_params`` — the names the
    call discharges — or ``acquires_via_params`` — the names it pins)."""
    summary = summaries.resolve(call)
    if summary is None:
        return set()
    indices = getattr(summary, fact)
    out: Set[str] = set()
    offset = 1 if summary.params and summary.params[0] in ("self", "cls") else 0
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and i + offset in indices:
            out.add(arg.id)
    for kw in call.keywords:
        if kw.arg in summary.params and isinstance(kw.value, ast.Name):
            if summary.params.index(kw.arg) in indices:
                out.add(kw.value.id)
    return out


def _acquired(call: ast.Call, summaries: ModuleSummaries) -> Iterator[Tuple[str, str]]:
    """``(family, receiver)`` for each resource ``call`` takes: a pin or a
    staging reservation on its own receiver, or a pin a summarized local
    helper takes through one of the call's arguments."""
    recv = _recv_name(call)
    if recv is not None:
        attr = call.func.attr
        if attr in _PIN_ACQUIRES or (attr == "put" and _keyword_true(call, "pin")):
            yield "pin", recv
        elif attr == _STAGE_ACQUIRE:
            yield "stage", recv
    for name in sorted(_helper_args(call, summaries, "acquires_via_params")):
        yield "pin", name


def _leak_check(
    ctx: FileContext,
    rule: Rule,
    cfg: CFG,
    obligations: List[_Obligation],
    gk: _GenKill,
) -> Iterator[Diagnostic]:
    """The two all-paths checks shared by R001 and R002."""
    if not obligations:
        return
    states = solve(cfg, gk.transfer)
    unwind_in = states[cfg.exit_unwind.id]
    for ob in obligations:
        if ob.token in unwind_in:
            yield ctx.diag(
                rule,
                ob.call,
                f"{ob.what} may leak on exception unwind: released on no "
                "unwind path out of a suspension point; release it in a "
                "finally/except BaseException, or hold it through a "
                "context-managed scope",
            )
        elif not gk.kills(ob.token):
            yield ctx.diag(
                rule,
                ob.call,
                f"{ob.what} is never released in this function: no "
                "matching release call on any path",
            )


@register
class PinLeakRule(Rule):
    """R001: cache pin or staging reservation leaks on some path.

    A pin (:meth:`CachingService.pin`, the hit of an ``acquire``, or
    ``put(..., pin=True)``) excludes its entry from eviction until the
    matching ``unpin``; a staging
    reservation (:meth:`CachingService.prefetch_begin`) holds prefetch
    budget until completed, taken or cancelled.  Faults are delivered as
    exceptions thrown into the holder at a yield, so a resource held
    across a suspension point with no ``finally``/``except`` release (or
    context-managed scope) leaks when the process is interrupted — the
    sanitizer then fails the whole run at quiesce, long after the cause.
    The rule charges acquisitions through a raw local receiver (pins) or
    any simple receiver (staging); pins taken through a function
    parameter or a ``with ... as scope`` binding are the scope owner's
    responsibility and are exempt.  A pin a module-local helper takes
    through a parameter (its summary's ``acquires_via_params``) is
    charged at the call site, to the argument passed there — so the
    caller must hand it a scope it owns.

    Bad::

        cache.pin(sid)
        yield engine.timeout(cost)     # interrupt here leaks the pin
        cache.unpin(sid)

    Good::

        with cache.pin_scope() as scope:
            scope.pin(sid)             # scope releases on any exit
            yield engine.timeout(cost)
    """

    id = "R001"
    title = "cache pin or staging reservation not released on every path"
    scope = "src"

    def applies(self, ctx: FileContext) -> bool:
        if not super().applies(ctx):
            return False
        # the caching service itself implements the protocol: its pin/
        # unpin bodies and scope plumbing are the primitive operations
        path = ctx.path.replace("\\", "/")
        return not path.endswith("services/cache.py")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        summaries = summarize_module(ctx.tree)
        for func in _functions(ctx.tree):
            cfg = build_cfg(func)
            params = _param_names(func)
            gk = _GenKill()
            obligations: List[_Obligation] = []
            for node in cfg.nodes:
                for call in _calls_in(node):
                    for family, recv in _acquired(call, summaries):
                        if family == "pin":
                            if recv in params or recv in cfg.scope_bindings:
                                continue
                            what = f"pin on cache {recv!r}"
                        else:
                            what = f"staging reservation on {recv!r}"
                        token = f"{family}:{node.id}:{call.lineno}:{recv}"
                        site = node
                        if isinstance(node.stmt, ast.If):
                            polarity = _test_acquire_polarity(node.stmt.test, call)
                            if polarity is not None:
                                assumed = _assume_succ(node, cfg, polarity)
                                if assumed is not None:
                                    site = assumed
                        gk.add_gen(site.id, token)
                        obligations.append(
                            _Obligation(token, call, recv, family, what)
                        )
            if not obligations:
                continue
            by_recv: Dict[Tuple[str, str], List[str]] = {}
            for ob in obligations:
                by_recv.setdefault((ob.family, ob.recv), []).append(ob.token)
            for node in cfg.nodes:
                for call in _calls_in(node):
                    recv = _recv_name(call)
                    released: Set[Tuple[str, str]] = set()
                    if recv is not None and isinstance(call.func, ast.Attribute):
                        attr = call.func.attr
                        if attr in _PIN_RELEASES:
                            released.add(("pin", recv))
                        if attr in _STAGE_RELEASES:
                            released.add(("stage", recv))
                    for name in _helper_args(call, summaries, "releases_pin_params"):
                        released.add(("pin", name))
                        released.add(("stage", name))
                    for key in released:
                        for token in by_recv.get(key, []):
                            gk.add_kill(node.id, token)
            yield from _leak_check(ctx, self, cfg, obligations, gk)


@register
class SlotLeakRule(Rule):
    """R002: admission slot taken but not handed back on every path.

    The server's slot pool is a bare counter: ``self._slots_free -= 1``
    admits, ``+= 1`` hands back.  Ownership may also transfer to the
    admitted waiter by triggering its grant event
    (``entry.admitted.succeed()``) or move into a helper that releases it
    (a summarized ``self._finalize(..., release_slot=True)``).  Any path
    — including the unwind out of a yield — that does none of these
    strands a slot: admission quietly degrades until the server wedges,
    and only the disposition counts at end of run reveal it.

    Bad::

        self._slots_free -= 1
        yield engine.timeout(grant_delay)   # interrupt strands the slot
        entry.admitted.succeed()

    Good::

        self._slots_free -= 1
        entry.admitted.succeed()            # atomic grant, no yield between
    """

    id = "R002"
    title = "admission slot acquired but not released or granted on every path"
    scope = "src"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        summaries = summarize_module(ctx.tree)
        for func in _functions(ctx.tree):
            gk = _GenKill()
            obligations: List[_Obligation] = []
            cfg: Optional[CFG] = None
            built = build_cfg(func)
            for node in built.nodes:
                for part in _walk_parts(node):
                    if (
                        isinstance(part, ast.AugAssign)
                        and isinstance(part.op, ast.Sub)
                        and isinstance(part.target, ast.Attribute)
                        and part.target.attr == "_slots_free"
                    ):
                        token = f"slot:{node.id}"
                        gk.add_gen(node.id, token)
                        obligations.append(
                            _Obligation(
                                token, part, "", "slot", "admission slot"
                            )
                        )
                        cfg = built
            if not obligations:
                continue
            tokens = [ob.token for ob in obligations]
            for node in built.nodes:
                discharged = False
                for part in _walk_parts(node):
                    if (
                        isinstance(part, ast.AugAssign)
                        and isinstance(part.op, ast.Add)
                        and isinstance(part.target, ast.Attribute)
                        and part.target.attr == "_slots_free"
                    ):
                        discharged = True
                for call in _calls_in(node):
                    name = dotted_name(call.func)
                    if name is not None and name.endswith(".admitted.succeed"):
                        discharged = True
                    summary = summaries.resolve(call)
                    if summary is not None:
                        if summary.releases_slot:
                            discharged = True
                        elif summary.releases_slot_if_param is not None:
                            if _keyword_true(
                                call, summary.releases_slot_if_param
                            ):
                                discharged = True
                if discharged:
                    for token in tokens:
                        gk.add_kill(node.id, token)
            yield from _leak_check(ctx, self, cfg, obligations, gk)


@register
class EventProtocolRule(Rule):
    """R003: an event must reach exactly one terminal, or escape.

    An :class:`Event` completes through exactly one ``succeed``/``fail``
    — the engine raises ``SimulationError("event triggered twice")`` at
    runtime for the second trigger, and an event nobody triggers strands
    every waiter.  For an event *created and kept local* to a function,
    both failures are statically decidable: some path re-triggers it, or
    some normal path returns while it is still live.  An event that
    escapes — stored on ``self``, passed to a call, returned, yielded,
    captured by a closure — has shared ownership and is exempt from then
    on, as is the unwind exit (the interrupt that killed the function
    owns the cleanup).  Events never read after creation are P001's
    finding, not repeated here.

    Bad::

        ev = engine.event()
        if fast_path:
            ev.succeed()
        # the slow path orphans ev; and a second ev.succeed() would
        # be "event triggered twice" at runtime

    Good::

        ev = engine.event()
        self._wake = ev          # escapes: the waker owns completion
        yield ev
    """

    id = "R003"
    title = "event may be orphaned or triggered twice on some path"
    scope = "src"

    def applies(self, ctx: FileContext) -> bool:
        if not super().applies(ctx):
            return False
        # the engine itself builds half-open events as primitives
        path = ctx.path.replace("\\", "/")
        return not path.endswith("cluster/events.py")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for func in _functions(ctx.tree):
            cfg = build_cfg(func)
            births = self._births(cfg)
            if not births:
                continue
            used = self._names_read_after_birth(cfg, births)
            births = {
                nid: name for nid, name in births.items() if name in used
            }
            if not births:
                continue
            yield from self._check_function(ctx, cfg, births)

    @staticmethod
    def _births(cfg: CFG) -> Dict[int, str]:
        """node id → name, for ``name = <event ctor>`` statements."""
        out: Dict[int, str] = {}
        for node in cfg.nodes:
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and _is_event_ctor(stmt.value)
            ):
                out[node.id] = stmt.targets[0].id
        return out

    @staticmethod
    def _names_read_after_birth(cfg: CFG, births: Dict[int, str]) -> Set[str]:
        names = set(births.values())
        read: Set[str] = set()
        for node in cfg.nodes:
            if node.id in births:
                continue
            for sub in _walk_parts(node):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in names
                ):
                    read.add(sub.id)
        return read

    def _check_function(
        self, ctx: FileContext, cfg: CFG, births: Dict[int, str]
    ) -> Iterator[Diagnostic]:
        # tokens: live:<site>, done:<site>, escaped:<site>
        sites_of: Dict[str, List[int]] = {}
        for nid, name in births.items():
            sites_of.setdefault(name, []).append(nid)
        effects: Dict[int, Tuple[str, str]] = {}  # node → (kind, name)
        for node in cfg.nodes:
            if node.id in births:
                effects[node.id] = ("birth", births[node.id])
                continue
            kind = self._classify(node, set(sites_of))
            if kind is not None:
                effects[node.id] = kind

        def transfer(node: CFGNode, state: State) -> State:
            effect = effects.get(node.id)
            if effect is None:
                return state
            kind, name = effect
            out = set(state)
            if kind == "birth":
                for k in sites_of[name]:
                    out -= {f"live:{k}", f"done:{k}", f"escaped:{k}"}
                out.add(f"live:{node.id}")
            elif kind == "terminal":
                for k in sites_of[name]:
                    if f"live:{k}" in out:
                        out.discard(f"live:{k}")
                        out.add(f"done:{k}")
            elif kind == "escape":
                for k in sites_of[name]:
                    if f"live:{k}" in out:
                        out.discard(f"live:{k}")
                        out.add(f"escaped:{k}")
            elif kind == "rebind":
                for k in sites_of[name]:
                    out -= {f"live:{k}", f"done:{k}", f"escaped:{k}"}
            return frozenset(out)

        states = solve(cfg, transfer)
        # double terminal: a terminal executes with the event already done
        for node in cfg.nodes:
            effect = effects.get(node.id)
            if effect is None or effect[0] != "terminal":
                continue
            name = effect[1]
            if any(f"done:{k}" in states[node.id] for k in sites_of[name]):
                yield ctx.diag(
                    self,
                    node.stmt,
                    f"event {name!r} may already be triggered when this "
                    "terminal runs ('event triggered twice' at runtime); "
                    "guard it or restructure so each path triggers once",
                )
        # orphan: still live at the normal exit, or overwritten while live
        exit_in = states[cfg.exit_normal.id]
        for nid, name in births.items():
            if f"live:{nid}" in exit_in:
                yield ctx.diag(
                    self,
                    cfg.nodes[nid].stmt,
                    f"event {name!r} may reach the end of the function "
                    "without succeed()/fail() and without escaping; a "
                    "waiter on it deadlocks",
                )
                continue
            for onid, oname in births.items():
                if oname == name and onid != nid:
                    if f"live:{nid}" in states[onid]:
                        yield ctx.diag(
                            self,
                            cfg.nodes[nid].stmt,
                            f"event {name!r} may still be live when "
                            "rebound here on a later path; the first "
                            "event is orphaned",
                        )
                        break

    @staticmethod
    def _classify(
        node: CFGNode, names: Set[str]
    ) -> Optional[Tuple[str, str]]:
        """terminal / escape / rebind effect of one statement, if any."""
        stmt = node.stmt
        # rebind to a non-event value ends tracking for the old event;
        # the orphan check for it happens against the birth node's state
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id in names
        ):
            return ("rebind", stmt.targets[0].id)
        terminal_name: Optional[str] = None
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr in _TERMINALS
            and isinstance(stmt.value.func.value, ast.Name)
            and stmt.value.func.value.id in names
        ):
            terminal_name = stmt.value.func.value.id
        for part in node.parts:
            if part is None:
                continue
            escaped = _escaping_name(part, names, terminal=terminal_name)
            if escaped is not None:
                return ("escape", escaped)
        if terminal_name is not None:
            return ("terminal", terminal_name)
        return None


def _escaping_name(
    part: ast.AST, names: Set[str], terminal: Optional[str] = None
) -> Optional[str]:
    """First tracked name whose reference leaves the local scope here.

    A bare attribute read (``ev.triggered``, and the receiver position of
    the statement's own terminal call) does not escape; any other Load —
    call argument, assignment value, return/yield, container element,
    subscript, closure capture — does.
    """
    parents: Dict[int, ast.AST] = {}
    nested: Dict[int, bool] = {}
    stack: List[Tuple[ast.AST, bool]] = [(part, False)]
    while stack:
        current, inside = stack.pop()
        for child in ast.iter_child_nodes(current):
            parents[id(child)] = current
            child_inside = inside or isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            nested[id(child)] = child_inside
            stack.append((child, child_inside))
    for sub in ast.walk(part):
        if not (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and sub.id in names
        ):
            continue
        if nested.get(id(sub), False):
            return sub.id  # closure capture
        parent = parents.get(id(sub))
        if isinstance(parent, ast.Attribute):
            continue  # attribute read / method receiver: no escape
        if sub.id == terminal:
            continue
        return sub.id
    return None


@register
class EarlyLedgerClaimRule(Rule):
    """R004: byte ledger credited before its transfer completes.

    Ledgers (``bytes_from_storage`` and friends) must record *finished*
    work: the sanitizer reconciles them against bytes that actually moved,
    and a claim made before the transfer's yield returns overstates the
    ledger whenever the transfer is interrupted mid-flight.  The rule
    flags a ledger ``+=`` from which a transfer suspension (a yield on a
    ``read_and_send`` result, directly or through a summarized local
    helper) is still reachable without an intervening loop iteration —
    claim after the yield, or compensate inside the
    unwind guard (``finally``/``except``) that already owns the failure
    path.

    Bad::

        transfer = cluster.read_and_send(node, j, desc.size)
        report.bytes_from_storage += desc.size   # claimed before it moved
        yield transfer

    Good::

        transfer = cluster.read_and_send(node, j, desc.size)
        yield transfer
        report.bytes_from_storage += desc.size
    """

    id = "R004"
    title = "byte-ledger mutation before the transfer it accounts completes"
    scope = "src"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        summaries = summarize_module(ctx.tree)
        for func in _functions(ctx.tree):
            cfg = build_cfg(func)
            transfer_vars = self._transfer_vars(func, summaries)
            yield_nodes = {
                node.id
                for node in cfg.nodes
                if self._is_transfer_yield(node, transfer_vars, summaries)
            }
            if not yield_nodes:
                continue
            for node in cfg.nodes:
                if node.in_unwind_guard:
                    continue
                for part in _walk_parts(node):
                    if not (
                        isinstance(part, ast.AugAssign)
                        and isinstance(part.op, ast.Add)
                        and isinstance(part.target, ast.Attribute)
                        and part.target.attr in _LEDGER_ATTRS
                    ):
                        continue
                    reachable = cfg.forward_reachable(node.id)
                    if reachable & yield_nodes:
                        yield ctx.diag(
                            self,
                            part,
                            f"ledger {part.target.attr!r} credited while a "
                            "transfer is still ahead on this path; an "
                            "interrupt mid-transfer leaves the ledger "
                            "overstated — claim after the final yield or "
                            "compensate in the unwind guard",
                        )

    @staticmethod
    def _transfer_vars(
        func: ast.AST, summaries: ModuleSummaries
    ) -> Set[str]:
        """Names assigned from transfer calls anywhere in the function."""
        out: Set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and is_transfer_call(node.value, summaries)
            ):
                out.add(node.targets[0].id)
        return out

    @staticmethod
    def _is_transfer_yield(
        node: CFGNode, transfer_vars: Set[str], summaries: ModuleSummaries
    ) -> bool:
        for sub in _walk_parts(node):
            if not isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                continue
            value = sub.value
            if isinstance(value, ast.Name) and value.id in transfer_vars:
                return True
            if isinstance(value, ast.Call) and is_transfer_call(
                value, summaries
            ):
                return True
        return False
