"""Rule plugin architecture.

A rule is a class with a unique ``id`` (``SIM001``), a one-line
``summary``, a ``rationale`` tying it to a concrete failure mode of the
simulator, and a ``check(ctx)`` generator yielding
:class:`~repro.lint.diagnostics.Diagnostic`\\ s.  Whole-program rules
(SIM1xx/SIM2xx) are registered the same way but keep the empty
``check``: their findings come from the analyses in
:mod:`repro.lint.semantic`.  Registering is one decorator::

    @register
    class NoWallClock(Rule):
        id = "SIM001"
        ...

Rule families (see ``docs/LINT.md`` for the full catalogue):

* ``SIM0xx`` — determinism (wall clock, global RNG, unordered iteration)
* ``SIM01x`` — unit consistency (raw magnitudes, decimal/binary mixing)
* ``SIM02x`` — DES process hygiene (generators, blocking calls, ``now``)
* ``SIM03x`` — API hygiene (mutable defaults)
* ``SIM04x`` — observability (bare ``print()`` in library code; no
  ad-hoc logging/stderr output at all in simulator subsystems, whose
  diagnostics go through ``repro.obs.log``)
* ``SIM05x`` — parallelism (worker processes outside ``repro.sweep``)
* ``SIM06x`` — performance API (direct fair-share solver calls outside
  ``repro.network``; per-event container allocation in
  ``# lint: hot-path`` modules)
* ``SIM07x`` — profiling hooks (wait causes must come from the closed
  ``WaitCause`` enum)
* ``SIM1xx`` — whole-program determinism taint (see
  :mod:`repro.lint.semantic`)
* ``SIM2xx`` — whole-program unit/dimension dataflow
"""

from __future__ import annotations

from typing import ClassVar, Iterator, Type

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity


class Rule:
    """Base class for lint rules."""

    id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    fix_hint: ClassVar[str] = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (path scoping)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Per-file findings; whole-program rules have none."""
        return iter(())

    def diagnostic(
        self, ctx: FileContext, node, message: str, fix_hint: str = ""
    ) -> Diagnostic:
        """Build a diagnostic anchored at an AST node."""
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
            severity=self.severity,
            fix_hint=fix_hint or self.fix_hint,
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, Type[Rule]]:
    """All registered rules, importing the built-in rule modules."""
    # Import for side effects (each module registers its rules).
    from repro.lint.rules import (  # noqa: F401
        api,
        des_hygiene,
        determinism,
        observability,
        parallelism,
        perf,
        profiling,
        semantic_meta,
        units,
    )

    return dict(sorted(_REGISTRY.items()))
