"""API-hygiene rules (SIM030)."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, iter_function_defs
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "collections.defaultdict", "collections.OrderedDict"}
)


@register
class NoMutableDefaults(Rule):
    """SIM030: no mutable default arguments."""

    id = "SIM030"
    summary = "mutable default argument"
    rationale = (
        "A default list/dict/set is created once at def-time and shared "
        "across calls — state leaks between independent simulations, "
        "the classic cross-run contamination bug."
    )
    severity = Severity.ERROR
    fix_hint = "default to None and create the container inside the function"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for func in iter_function_defs(ctx):
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default, ctx):
                    yield self.diagnostic(
                        ctx,
                        default,
                        f"mutable default argument in {func.name}()",
                    )

    def _is_mutable(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, _MUTABLE_LITERALS):
            return True
        if isinstance(node, ast.Call):
            name = ctx.imports.resolve(node.func)
            return name in _MUTABLE_CONSTRUCTORS
        return False
