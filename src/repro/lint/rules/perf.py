"""Performance-API rules (SIM06x).

The fair-share solver has one sanctioned home: ``repro.network``, where
the flow network and its component solver own rate recomputation.
Anything else calling :func:`~repro.network.fairshare.max_min_fair_rates`
directly is a layering leak — it hard-codes one sharing discipline,
bypasses the allocator registry (so configs/CLIs can't A/B it), and is
invisible to the solver-call telemetry.

SIM061 guards the modules those layers keep fast: a file carrying a
``# lint: hot-path`` marker declares that its loops run once per
simulation event, and the rule flags container allocations
(list/dict/set displays, comprehensions, and constructor calls) inside
``for``/``while`` bodies there.  Amortized allocations (rebuilds on
topology change, error paths) stay legal via a line pragma.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

#: The guarded solver entry point (resolved import suffixes).
_SOLVER = "max_min_fair_rates"
_SOLVER_PATHS = frozenset(
    {
        _SOLVER,
        f"repro.network.{_SOLVER}",
        f"repro.network.fairshare.{_SOLVER}",
    }
)


@register
class NoDirectFairShareCalls(Rule):
    """SIM060: direct ``max_min_fair_rates`` use outside the network
    layer."""

    id = "SIM060"
    summary = "direct fair-share solver call outside repro.network"
    rationale = (
        "Calling max_min_fair_rates directly hard-codes one bandwidth-"
        "sharing discipline: the run can no longer be switched to "
        "equal-split or another allocator from a Config, "
        "a sweep point, or --network-allocator, and the call is "
        "invisible to the network.solver_calls telemetry.  Rates belong "
        "to FlowNetwork; solver choice belongs to the constant allocator "
        "table behind resolve_allocator."
    )
    severity = Severity.ERROR
    fix_hint = (
        "resolve a named allocator via repro.network.resolve_allocator "
        "(or pass allocator=... to FlowNetwork/Platform) instead of "
        "calling the solver directly"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # The flow network and its component solver own direct calls.
        return ctx.outside_package_dir("network/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom):
                if node.module and not node.level and (
                    node.module in ("repro.network", "repro.network.fairshare")
                ):
                    for alias in node.names:
                        if alias.name == _SOLVER:
                            yield self.diagnostic(
                                ctx,
                                node,
                                f"import of {_SOLVER} outside "
                                "repro.network",
                            )
            elif isinstance(node, ast.Call):
                name = ctx.imports.resolve(node.func)
                if name in _SOLVER_PATHS or (
                    name is not None and name.endswith(f".{_SOLVER}")
                ):
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"direct {_SOLVER}() call outside "
                        "repro.network",
                    )


#: Marker comment opting a module into SIM061 (same spellings as the
#: suppression pragmas: ``lint:`` or ``repro-lint:``).
_HOT_PATH_RE = re.compile(r"#\s*(?:repro-)?lint:\s*hot-path\b")

#: Container displays/comprehensions that allocate on evaluation.
_ALLOC_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Builtin constructors that allocate a fresh container per call.
_ALLOC_CALLS = frozenset({"list", "dict", "set"})

#: Scopes whose bodies do not run per iteration of an enclosing loop.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


@register
class NoHotPathAllocation(Rule):
    """SIM061: per-event container allocation in a hot-path module."""

    id = "SIM061"
    summary = "container allocated inside a loop in a hot-path module"
    rationale = (
        "Modules marked `# lint: hot-path` promise their loops run once "
        "per simulation event; a list/dict/set built inside such a loop "
        "turns every event into an allocation plus eventual GC work, "
        "which is exactly the per-event cost the array-backed event "
        "queue and the change-proportional flow network avoid.  "
        "Hoist the container out of the loop, reuse a preallocated "
        "buffer, or store into parallel arrays."
    )
    severity = Severity.ERROR
    fix_hint = (
        "hoist the allocation out of the loop (preallocate and reuse), "
        "or suppress a proven-amortized site with "
        "`# lint: ignore[SIM061] - why`"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # Opt-in only: the marker is a performance contract a module
        # declares about itself, not a property of its directory.
        return _HOT_PATH_RE.search(ctx.source) is not None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        yield from self._walk(ctx, ctx.tree, in_loop=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, in_loop: bool
    ) -> Iterator[Diagnostic]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                # A nested def/class body executes in its own call
                # context, not per iteration of the enclosing loop.
                yield from self._walk(ctx, child, in_loop=False)
                continue
            if in_loop:
                if isinstance(child, _ALLOC_NODES):
                    yield self.diagnostic(
                        ctx,
                        child,
                        f"{_describe(child)} allocated inside a loop in a "
                        "hot-path module",
                    )
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in _ALLOC_CALLS
                    and ctx.imports.resolve(child.func) == child.func.id
                ):
                    yield self.diagnostic(
                        ctx,
                        child,
                        f"{child.func.id}() allocated inside a loop in a "
                        "hot-path module",
                    )
            yield from self._walk(
                ctx, child, in_loop or isinstance(child, (ast.For, ast.While))
            )


def _describe(node: ast.AST) -> str:
    return {
        ast.List: "list display",
        ast.Dict: "dict display",
        ast.Set: "set display",
        ast.ListComp: "list comprehension",
        ast.DictComp: "dict comprehension",
        ast.SetComp: "set comprehension",
    }[type(node)]
