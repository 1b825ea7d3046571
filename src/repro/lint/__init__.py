"""repro.lint — simulation-correctness static analysis.

An AST-based linter encoding the simulator's invariants as rules:

* **determinism** — no wall clock, no global RNG, no hash-ordered
  iteration in scheduling paths (SIM001–SIM003);
* **unit consistency** — magnitudes go through
  :mod:`repro.platform.units`, no decimal/binary mixing (SIM010–SIM011);
* **DES hygiene** — ``env.process`` takes generators, processes never
  block, no exact equality on simulated time (SIM020–SIM022);
* **API hygiene** — no mutable defaults (SIM030);
* **whole-program analyses** — determinism taint and unit/dimension
  dataflow across modules (SIM100–SIM103, SIM201–SIM202).

One :class:`Checker` pass parses each file once and runs every rule.
Usage::

    python -m repro.lint src/              # lint a tree
    repro-lint --select SIM001 --format json src/

Suppressions: ``# lint: ignore[SIM001] - why`` (line) and
``# lint: ignore-file[SIM010] - why`` (file).  Full catalogue with
rationale and examples: ``docs/LINT.md``.
"""

from repro.lint.baseline import Baseline, write_baseline
from repro.lint.checker import PARSE_ERROR_ID, Checker
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.pragmas import UNKNOWN_PRAGMA_RULE_ID
from repro.lint.rules import Rule, all_rules, register

__all__ = [
    "Baseline",
    "Checker",
    "Diagnostic",
    "LintConfig",
    "PARSE_ERROR_ID",
    "Rule",
    "Severity",
    "UNKNOWN_PRAGMA_RULE_ID",
    "all_rules",
    "register",
    "write_baseline",
]
