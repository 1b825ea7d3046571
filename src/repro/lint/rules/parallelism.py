"""Parallelism rules (SIM05x).

Host-process parallelism is how sweep results stop being reproducible:
an ad-hoc ``ProcessPoolExecutor`` orders results by completion, skips
the content-addressed cache, and bypasses the per-point telemetry and
retry bookkeeping.  ``repro.sweep`` is the one sanctioned owner of
worker processes — everything else goes through it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

#: Call targets that spin up worker processes directly.
PROCESS_POOL_CALLS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.Process",
        "multiprocessing.pool.Pool",
    }
)


@register
class NoNakedProcessPool(Rule):
    """SIM050: process-based parallelism outside ``repro.sweep``."""

    id = "SIM050"
    summary = "process pool outside repro.sweep"
    rationale = (
        "Ad-hoc worker pools return results in completion order, bypass "
        "the sweep cache/telemetry/retry machinery, and make runs "
        "non-reproducible; fan work out through repro.sweep.run_sweep."
    )
    severity = Severity.ERROR
    fix_hint = (
        "express the fan-out as a SweepSpec and call repro.sweep.run_sweep"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # repro.sweep is the sanctioned owner of worker processes.
        return ctx.outside_package_dir("sweep/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        yield self.diagnostic(
                            ctx,
                            node,
                            f"import of {alias.name} outside repro.sweep",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and not node.level and (
                    node.module.split(".")[0] == "multiprocessing"
                ):
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"import from {node.module} outside repro.sweep",
                    )
            elif isinstance(node, ast.Call):
                name = ctx.imports.resolve(node.func)
                if name in PROCESS_POOL_CALLS:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"{name}() spawns worker processes outside repro.sweep",
                    )
