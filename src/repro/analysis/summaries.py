"""Lightweight intra-module call summaries for the R-series rules.

A helper that releases a resource should count at its call sites — without
whole-program analysis.  :func:`summarize_module` takes one parsed module
and computes, per function/method (keyed by simple name, and by
``self.<name>`` for methods), a :class:`FunctionSummary` of the facts the
rules consume:

* ``releases_pin_params`` — parameter indices on which the function calls
  ``.unpin(...)`` / ``.release(...)`` / ``.close()`` on every fact we can
  cheaply see (a *may-release* fact; used to discharge obligations at call
  sites, which is safe for may-leak rules in the "forward release exists"
  direction);
* ``acquires_via_params`` — parameter indices through which the function
  acquires pins (``param.pin(...)`` / ``param.acquire(...)`` /
  ``param.put(..., pin=True)``):
  the *caller* owns those, typically via a ``pin_scope()`` context
  manager, so the callee is not charged with an obligation and the
  caller's argument is;
* ``releases_slot`` — the function performs ``self._slots_free += 1``
  unconditionally, or gated on a boolean parameter whose name is recorded
  in ``releases_slot_if_param`` (resolved against literal keyword
  arguments at the call site);
* ``contains_transfer_yield`` — the function yields on a transfer
  (``read_and_send``) somewhere, so a ``yield from helper(...)`` at a
  call site is itself a transfer suspension.

Resolution is deliberately name-based and module-local: calls to
``helper(...)`` or ``self.helper(...)`` match a definition named
``helper`` in the same file.  That is exactly the precision the repo
needs — the protocols under check (cache pins, server slots, events,
ledgers) are each implemented within one module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

__all__ = ["FunctionSummary", "ModuleSummaries", "summarize_module"]

_RELEASE_METHODS = {"unpin", "release", "close", "prefetch_cancel"}
_ACQUIRE_METHODS = {"pin", "acquire"}
_TRANSFER_METHODS = {"read_and_send"}


@dataclass
class FunctionSummary:
    name: str
    params: List[str] = field(default_factory=list)
    releases_pin_params: Set[int] = field(default_factory=set)
    acquires_via_params: Set[int] = field(default_factory=set)
    releases_slot: bool = False
    releases_slot_if_param: Optional[str] = None
    contains_transfer_yield: bool = False
    #: module-local helpers this function yields on / yields from; used to
    #: propagate ``contains_transfer_yield`` transitively at module level
    yielded_local_calls: Set[str] = field(default_factory=set)


class ModuleSummaries:
    """Summaries for every function defined in one module."""

    def __init__(self) -> None:
        self._by_name: Dict[str, FunctionSummary] = {}

    def add(self, summary: FunctionSummary) -> None:
        # last definition wins; names are unique enough module-locally
        self._by_name[summary.name] = summary

    def resolve(self, call: ast.Call) -> Optional[FunctionSummary]:
        """Summary for ``helper(...)`` or ``self.helper(...)``, if defined
        in this module."""
        func = call.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            name = func.attr
        if name is None:
            return None
        return self._by_name.get(name)

    def get(self, name: str) -> Optional[FunctionSummary]:
        return self._by_name.get(name)


def _param_names(func: ast.AST) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _keyword_is_true(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


def _local_callee_name(call: ast.Call) -> Optional[str]:
    """Name of a module-local callee: ``helper(...)`` / ``self.helper(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    ):
        return func.attr
    return None


def _summarize_function(func: ast.AST) -> FunctionSummary:
    params = _param_names(func)
    param_index = {p: i for i, p in enumerate(params)}
    out = FunctionSummary(name=func.name, params=params)

    # names assigned from transfer calls, so `t = X.read_and_send(...);
    # yield t` counts the same as yielding the call directly
    transfer_vars = {
        node.targets[0].id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in _TRANSFER_METHODS
    }

    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            attr = node.func.attr
            if isinstance(recv, ast.Name) and recv.id in param_index:
                idx = param_index[recv.id]
                if attr in _RELEASE_METHODS:
                    out.releases_pin_params.add(idx)
                if attr in _ACQUIRE_METHODS:
                    out.acquires_via_params.add(idx)
                if attr == "put" and _keyword_is_true(node, "pin"):
                    out.acquires_via_params.add(idx)
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            inner = node.value
            if isinstance(inner, ast.Name) and inner.id in transfer_vars:
                out.contains_transfer_yield = True
            if isinstance(inner, ast.Call):
                if (
                    isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in _TRANSFER_METHODS
                ):
                    out.contains_transfer_yield = True
                else:
                    callee = _local_callee_name(inner)
                    if callee is not None:
                        out.yielded_local_calls.add(callee)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            tgt = node.target
            if (
                isinstance(tgt, ast.Attribute)
                and tgt.attr == "_slots_free"
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id in ("self", "cls")
            ):
                gate = _enclosing_if_param_gate(func, node, set(params))
                if gate is None:
                    out.releases_slot = True
                else:
                    out.releases_slot_if_param = gate
    return out


def _enclosing_if_param_gate(
    func: ast.AST, target: ast.AST, params: Set[str]
) -> Optional[str]:
    """If ``target`` sits directly under ``if <param>:`` return the param
    name; None when the statement is unconditional (or gated on something
    we cannot resolve, which we conservatively treat as unconditional
    release — may-release is the safe direction for leak rules)."""
    # walk with an explicit stack tracking the innermost If test
    stack = [(func, None)]
    while stack:
        node, gate = stack.pop()
        if node is target:
            return gate
        child_gate = gate
        if isinstance(node, ast.If):
            test = node.test
            if isinstance(test, ast.Name) and test.id in params:
                child_gate = test.id
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_gate))
    return None


def summarize_module(tree: ast.Module) -> ModuleSummaries:
    """Summaries of every (async) function defined anywhere in ``tree``.

    ``contains_transfer_yield`` is closed transitively: a function whose
    ``yield from helper(...)`` reaches a transfer through ``helper`` is
    itself a transfer suspension at its call sites.
    """
    out = ModuleSummaries()
    ordered: List[FunctionSummary] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _summarize_function(node)
            out.add(summary)
            ordered.append(summary)
    changed = True
    while changed:
        changed = False
        for summary in ordered:
            if summary.contains_transfer_yield:
                continue
            for callee in sorted(summary.yielded_local_calls):
                target = out.get(callee)
                if target is not None and target.contains_transfer_yield:
                    summary.contains_transfer_yield = True
                    changed = True
                    break
    return out


def is_transfer_call(call: ast.Call, summaries: Optional[ModuleSummaries] = None) -> bool:
    """Whether yielding on ``call``'s result suspends on a data transfer."""
    if isinstance(call.func, ast.Attribute) and call.func.attr in _TRANSFER_METHODS:
        return True
    if summaries is not None:
        summary = summaries.resolve(call)
        if summary is not None and summary.contains_transfer_yield:
            return True
    return False
