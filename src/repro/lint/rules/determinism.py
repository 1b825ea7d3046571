"""Determinism rules (SIM001–SIM003).

The simulator's validation story (Figures 10–14) assumes that the same
scenario + seed always yields the same trace.  Wall-clock reads, the
process-global RNG, and hash-order iteration all break that silently:
no test fails, the numbers are just no longer reproducible.  The call
catalogs are shared with the SIM100 taint sources
(:mod:`repro.lint.catalog`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.catalog import WALL_CLOCK_CALLS, global_rng_family, is_set_expr
from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register


@register
class NoWallClock(Rule):
    """SIM001: no wall-clock reads in simulation code."""

    id = "SIM001"
    summary = "wall-clock call in simulation code"
    rationale = (
        "Simulated time is env.now; reading the host clock couples results "
        "to machine speed and invalidates trace reproducibility."
    )
    severity = Severity.ERROR
    fix_hint = "use env.now (simulated seconds); for harness progress output, suppress with a justified pragma"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.diagnostic(
                    ctx, node, f"wall-clock call {name}() in simulation code"
                )


@register
class NoGlobalRandom(Rule):
    """SIM002: no process-global RNG; thread a seeded generator."""

    id = "SIM002"
    summary = "call on the process-global RNG"
    rationale = (
        "random.random()/np.random.rand() share hidden global state: any "
        "import-order or call-order change silently reshuffles every "
        "'random' draw in the run."
    )
    severity = Severity.ERROR
    fix_hint = (
        "construct random.Random(seed) or numpy.random.default_rng(seed) "
        "and pass it down as an explicit rng parameter"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            family = global_rng_family(name)
            if family == "random":
                yield self.diagnostic(
                    ctx, node, f"{name}() uses the process-global RNG"
                )
            elif family == "numpy":
                yield self.diagnostic(
                    ctx, node, f"{name}() uses numpy's global RNG state"
                )


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys")
        and not node.args
        and not node.keywords
    )


@register
class NoUnorderedIteration(Rule):
    """SIM003: no hash-ordered iteration feeding scheduling decisions."""

    id = "SIM003"
    summary = "iteration order depends on set hashing / insertion order"
    rationale = (
        "In wms/ and des/, loop order decides event tie-breaks (which "
        "ready task starts first).  Sets of strings iterate in "
        "PYTHONHASHSEED-dependent order, and min/max over dict views "
        "break ties by insertion position."
    )
    severity = Severity.WARNING
    fix_hint = "iterate sorted(...) with an explicit key, or justify with a pragma"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package_dir("wms/", "des/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_expr(node.iter):
                    yield self.diagnostic(
                        ctx, node.iter, "for-loop iterates a bare set"
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if is_set_expr(gen.iter):
                        yield self.diagnostic(
                            ctx, gen.iter, "comprehension iterates a bare set"
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("min", "max") and node.args:
                    arg = node.args[0]
                    if is_set_expr(arg) or _is_dict_view(arg):
                        yield self.diagnostic(
                            ctx,
                            arg,
                            f"{node.func.id}() over an unordered collection "
                            "breaks ties by hash/insertion order",
                        )
