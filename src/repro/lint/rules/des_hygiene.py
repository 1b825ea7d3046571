"""DES process-hygiene rules (SIM020–SIM022).

The kernel's contract: ``env.process(...)`` takes a *generator
iterator*; a process blocks only by yielding events; and simulated
timestamps are floats accumulated through ``env.now`` — never compared
with ``==``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import (
    FileContext,
    is_generator,
    iter_function_defs,
    walk_shallow,
)
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

#: Calls that block the host thread — poison inside a DES process,
#: whose only legitimate waiting primitive is ``yield <event>``.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.socket",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
        "open",
        "input",
    }
)


def _local_function_index(
    ctx: FileContext,
) -> dict[str, "list[ast.FunctionDef | ast.AsyncFunctionDef]"]:
    """Bare name -> definitions in this module (any nesting level)."""
    index: dict[str, list] = {}
    for func in iter_function_defs(ctx):
        index.setdefault(func.name, []).append(func)
    return index


@register
class ProcessNeedsGenerator(Rule):
    """SIM020: env.process(...) must receive a generator."""

    id = "SIM020"
    summary = "non-generator passed to env.process(...)"
    rationale = (
        "Process(env, gen) drives the argument with send(); a plain "
        "function call has already run to completion by the time "
        "process() sees its return value — the 'process' does nothing, "
        "at time zero."
    )
    severity = Severity.ERROR
    fix_hint = "make the function a generator (yield events), or pass gen() not gen"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        index = _local_function_index(ctx)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"
                and node.args
            ):
                continue
            arg = node.args[0]
            diag = self._check_argument(ctx, arg, index)
            if diag is not None:
                yield diag

    def _check_argument(
        self, ctx: FileContext, arg: ast.AST, index: dict
    ) -> Optional[Diagnostic]:
        if isinstance(arg, ast.Lambda):
            return self.diagnostic(
                ctx, arg, "lambda passed to process() can never be a generator"
            )
        if isinstance(arg, ast.GeneratorExp):
            return None
        func_name: Optional[str] = None
        if isinstance(arg, ast.Call):
            func_name = _bare_callee_name(arg.func)
            verdict = "returns a value, not a generator iterator"
        elif isinstance(arg, (ast.Name, ast.Attribute)):
            # A bare reference: only a bug if it names a local function
            # (forgot to call it); generator objects held in variables
            # are indistinguishable statically, so we stay silent.
            func_name = _bare_callee_name(arg)
            verdict = "is a function reference — call it to get the generator"
            defs = index.get(func_name or "", [])
            if not defs:
                return None
            return self.diagnostic(
                ctx, arg, f"process({func_name}) {verdict}"
            )
        else:
            return None
        defs = index.get(func_name or "", [])
        if not defs:
            return None
        generator_flags = {is_generator(d) for d in defs}
        if generator_flags == {False}:
            return self.diagnostic(
                ctx, arg, f"process({func_name}(...)) — {func_name} {verdict}"
            )
        return None


def _bare_callee_name(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a callee (``run``, ``self._run``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class NoBlockingInProcess(Rule):
    """SIM021: no blocking calls inside process generators."""

    id = "SIM021"
    summary = "blocking call inside a DES process generator"
    rationale = (
        "time.sleep()/file/network I/O inside a process freezes the "
        "whole event loop in real time while simulated time stands "
        "still; waiting is expressed by yielding a Timeout/Event."
    )
    severity = Severity.ERROR
    fix_hint = "yield env.timeout(delay) / an event; hoist real I/O out of the process"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for func in iter_function_defs(ctx):
            if not is_generator(func):
                continue
            for node in walk_shallow(func):
                if not isinstance(node, ast.Call):
                    continue
                name = ctx.imports.resolve(node.func)
                if name in BLOCKING_CALLS:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"blocking call {name}() inside process generator "
                        f"{func.name!r}",
                    )


def _mentions_now(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "now"
        for sub in ast.walk(node)
    )


@register
class NoExactTimeEquality(Rule):
    """SIM022: no ==/!= on floats derived from env.now."""

    id = "SIM022"
    summary = "==/!= comparison on simulated timestamps"
    rationale = (
        "env.now accumulates float additions (t + size/bandwidth); two "
        "paths to the 'same' instant differ in the last ulp, so exact "
        "equality flips on harmless refactors."
    )
    severity = Severity.ERROR
    fix_hint = "compare with <=/>= or math.isclose(a, b, abs_tol=...)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for func in iter_function_defs(ctx):
            body = list(walk_shallow(func))
            tainted = {
                target.id
                for node in body
                if isinstance(node, ast.Assign) and _mentions_now(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in body:
                if not isinstance(node, ast.Compare):
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                    continue
                operands = [node.left, *node.comparators]
                if any(
                    _mentions_now(operand)
                    or (isinstance(operand, ast.Name) and operand.id in tainted)
                    for operand in operands
                ):
                    yield self.diagnostic(
                        ctx,
                        node,
                        "exact ==/!= on a timestamp derived from env.now",
                    )
