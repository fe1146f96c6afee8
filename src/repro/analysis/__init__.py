"""``simlint``: static determinism/protocol analysis, plus the runtime sanitizer.

Two complementary checkers for the simulation stack:

* the **linter** (:mod:`repro.analysis.linter`, ``python -m repro.analysis``
  or ``repro lint``) — AST rules that reject the syntactic shapes of
  nondeterminism (wall clocks, unseeded RNGs, unordered iteration) and of
  engine-protocol misuse (leaked events, unadjudicated races) before they
  run;
* the **sanitizer** (:mod:`repro.analysis.sanitizer`, ``repro run
  --sanitize``) — runtime invariant hooks installed into the engine,
  caches and query-execution strategies that catch the semantic bugs no
  syntax rule can see (cache over capacity, lost transfer bytes,
  stranded processes, tie-break-order dependence).

See ``DESIGN.md`` §7 for the rule catalogue and the invariant list.
"""

from repro.analysis.diagnostics import Diagnostic, filter_suppressed, suppressions
from repro.analysis.linter import find_suppressions, lint_paths, lint_source, main
from repro.analysis.rules import RULES, FileContext, Rule, register
from repro.analysis.sanitizer import RunSanitizer, SanitizerViolation

__all__ = [
    "Diagnostic",
    "FileContext",
    "RULES",
    "Rule",
    "RunSanitizer",
    "SanitizerViolation",
    "filter_suppressed",
    "find_suppressions",
    "lint_paths",
    "lint_source",
    "main",
    "register",
    "suppressions",
]
