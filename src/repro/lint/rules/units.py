"""Unit-consistency rules (SIM010–SIM011).

Table I quotes bandwidths in MB/s (decimal) and file sizes in MiB
(binary); a raw ``800000000`` or a ``MB``-vs-``MiB`` mixup is a silent
~5–10% calibration error that no test catches.  All magnitudes must go
through ``repro.platform.units``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.catalog import MAGNITUDE_THRESHOLD, UNIT_FAMILIES
from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

#: Identifiers whose values are byte counts, rates, or speeds.
QUANTITY_NAME = re.compile(
    r"(size|bytes|capacity|bandwidth|bw|speed|flops|rate)", re.IGNORECASE
)


def _tail_name(node: ast.AST) -> Optional[str]:
    """Identifier text of an assignment target / keyword / dict key."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _uses_units(node: ast.AST, ctx: FileContext) -> bool:
    """True when the expression references a units constant or parser."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            name = ctx.imports.resolve(sub) or ""
            tail = name.rsplit(".", 1)[-1]
            if tail in UNIT_FAMILIES:
                return True
            if tail in ("parse_size", "parse_bandwidth"):
                return True
    return False


def _large_literals(node: ast.AST) -> Iterator[ast.Constant]:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, (int, float))
            and not isinstance(sub.value, bool)
            and abs(sub.value) >= MAGNITUDE_THRESHOLD
        ):
            yield sub


@register
class RawQuantityLiteral(Rule):
    """SIM010: sizes/bandwidths/speeds must use the units vocabulary."""

    id = "SIM010"
    summary = "raw numeric literal used as a size/bandwidth/speed"
    rationale = (
        "A bare 800000000 gives no hint whether it is 800 MB (decimal, "
        "Table I bandwidths) or ~763 MiB (binary, file sizes); every "
        "calibration constant must spell its unit family."
    )
    severity = Severity.WARNING
    fix_hint = (
        "express the value via repro.platform.units (e.g. 800 * MB) "
        "or parse_size(\"800 MB\")"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package_dir("platform/", "storage/", "network/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            for target_name, value in _quantity_bindings(node):
                if not QUANTITY_NAME.search(target_name):
                    continue
                if _uses_units(value, ctx):
                    continue
                for literal in _large_literals(value):
                    yield self.diagnostic(
                        ctx,
                        literal,
                        f"raw magnitude {literal.value!r} bound to "
                        f"{target_name!r} without a units constant",
                    )


def _quantity_bindings(node: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(identifier, value-expression) pairs that bind quantities."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if node.value is not None:
            for target in targets:
                name = _tail_name(target)
                if name:
                    yield name, node.value
    elif isinstance(node, ast.Call):
        for keyword in node.keywords:
            if keyword.arg:
                yield keyword.arg, keyword.value
    elif isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if key is not None:
                name = _tail_name(key)
                if name:
                    yield name, value


def _unit_families(node: ast.AST, ctx: FileContext) -> set[str]:
    families: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            tail = (ctx.imports.resolve(sub) or "").rsplit(".", 1)[-1]
            if tail in UNIT_FAMILIES:
                families.add(UNIT_FAMILIES[tail])
    return families


@register
class MixedUnitFamilies(Rule):
    """SIM011: don't add/subtract decimal and binary unit quantities."""

    id = "SIM011"
    summary = "+/- mixes decimal (MB) and binary (MiB) unit constants"
    rationale = (
        "32 * MiB + 32 * MB is almost always a transcription slip "
        "(4.9% error); sums must stay within one unit family.  Ratios "
        "and products across families are legitimate conversions."
    )
    severity = Severity.ERROR
    fix_hint = "convert one operand so both sides share a unit family"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left = _unit_families(node.left, ctx)
            right = _unit_families(node.right, ctx)
            if not left or not right:
                continue
            if left != right or len(left) > 1 or len(right) > 1:
                yield self.diagnostic(
                    ctx,
                    node,
                    "addition/subtraction mixes decimal and binary unit constants",
                )
