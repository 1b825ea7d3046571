"""Observability rule (SIM040): one rule for every ad-hoc output channel."""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

#: Module basenames whose whole purpose is terminal output.
_CLI_BASENAMES = frozenset({"cli.py", "__main__.py"})

#: The simulator subsystems whose only sanctioned output channel is the
#: structured event log (``Observer.log_event`` → ``repro.obs.log``).
_SUBSYSTEM_DIRS = (
    "des/", "network/", "storage/", "compute/", "wms/", "sweep/"
)

#: Stream attributes a subsystem must not write to directly.
_STREAM_ATTRS = frozenset({"sys.stdout", "sys.stderr"})

_SUBSYSTEM_FIX_HINT = (
    "emit a structured event via the observer "
    "(obs.log_event(component, event, **fields)) instead"
)


@register
class NoAdHocOutput(Rule):
    """SIM040: no bare ``print()`` in library code, and no ad-hoc output
    channel at all in the simulator subsystems.

    Everywhere outside CLI modules and ``main()`` functions, ``print()``
    is flagged.  Inside the subsystems the bar is higher: the
    :mod:`logging` module, direct ``sys.stdout``/``sys.stderr`` writes
    and ``warnings.warn`` all bypass the structured event log, so a
    tailing tool and the post-run ``events.ndjson`` never see them.
    """

    id = "SIM040"
    summary = "bare print() or ad-hoc output channel in library code"
    rationale = (
        "A print() buried in simulation code writes to stdout on every "
        "run — it corrupts machine-read output (JSON/CSV pipelines), "
        "cannot be silenced per-run, and hides from the observability "
        "layer.  Telemetry belongs in repro.obs; user-facing text "
        "belongs in CLI modules.  Inside the simulator subsystems, "
        "logging/stderr writes and warnings are just as invisible to the "
        "live bus, the invariant monitors' event chains and the exported "
        "events.ndjson, and their wall-clock timestamps break "
        "byte-identical post-run exports."
    )
    severity = Severity.ERROR
    fix_hint = (
        "record through repro.obs (or return the value) and print only "
        "in cli.py/__main__.py or a main() entry point"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return PurePath(ctx.path).name not in _CLI_BASENAMES

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        # A main() function *is* a CLI entry point, wherever it lives;
        # its output is the interface.
        in_main = {
            id(node)
            for func in ctx.nodes
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and func.name == "main"
            for node in ast.walk(func)
        }
        subsystem = ctx.in_package_dir(*_SUBSYSTEM_DIRS)
        for node in ctx.nodes:
            if id(node) in in_main:
                continue
            if isinstance(node, ast.Call) and ctx.imports.resolve(node.func) == "print":
                yield self.diagnostic(ctx, node, "bare print() in library code")
            elif subsystem:
                yield from self._subsystem_output(ctx, node)

    def _subsystem_output(self, ctx: FileContext, node: ast.AST) -> Iterator[Diagnostic]:
        def found(at: ast.AST, message: str) -> Diagnostic:
            return self.diagnostic(ctx, at, message, fix_hint=_SUBSYSTEM_FIX_HINT)

        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "logging":
                    yield found(node, "logging module imported in a simulator subsystem")
        elif isinstance(node, ast.ImportFrom):
            if node.module and not node.level and node.module.split(".")[0] == "logging":
                yield found(node, "logging module imported in a simulator subsystem")
        elif isinstance(node, ast.Call):
            name = ctx.imports.resolve(node.func) or ""
            if name == "warnings.warn":
                yield found(node, "warnings.warn() in a simulator subsystem")
            elif name.split(".")[0] == "logging":
                yield found(node, f"{name}() call in a simulator subsystem")
            elif isinstance(node.func, ast.Attribute):
                owner = ctx.imports.resolve(node.func.value)
                if owner in _STREAM_ATTRS:
                    yield found(node, f"direct {owner} write in a simulator subsystem")
            for keyword in node.keywords:
                target = ctx.imports.resolve(keyword.value) if keyword.arg == "file" else None
                if target in _STREAM_ATTRS:
                    yield found(
                        keyword.value,
                        f"output redirected to {target} in a simulator subsystem",
                    )
