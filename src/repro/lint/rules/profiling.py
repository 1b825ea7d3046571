"""Profiling-hook rules (SIM07x).

The wait-cause taxonomy (:class:`repro.obs.waits.WaitCause`) is a
*closed* enum: the critical-path profiler compares wait decompositions
across runs, sweeps, and machines, which only works when every hook
site draws from the same fixed vocabulary.  An ad-hoc string at one
call site ("cpu", "core_queue", ...) would silently fracture that
vocabulary — profiles would still build, but diffs would report
phantom resource shifts.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

#: The observer hooks whose ``cause`` argument is enum-guarded.
_HOOKS = frozenset({"on_task_blocked", "on_task_unblocked"})

#: Fully-qualified names of the closed enum.
_WAITCAUSE_PATHS = frozenset(
    {
        "WaitCause",
        "repro.obs.WaitCause",
        "repro.obs.waits.WaitCause",
    }
)


def _cause_argument(call: ast.Call) -> Optional[ast.AST]:
    """The ``cause`` argument of a wait-hook call, if present."""
    for keyword in call.keywords:
        if keyword.arg == "cause":
            return keyword.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


@register
class WaitCauseClosedEnum(Rule):
    """SIM070: wait-cause hooks must pass a ``WaitCause`` member."""

    id = "SIM070"
    summary = "wait-cause hook called without a WaitCause enum member"
    rationale = (
        "on_task_blocked/on_task_unblocked feed the critical-path "
        "profiler's wait decomposition, which is compared across runs "
        "and sweep points.  An ad-hoc cause string fractures the closed "
        "vocabulary: profiles still build, but diffs report phantom "
        "wait categories and the per-cause counters stop aggregating."
    )
    severity = Severity.ERROR
    fix_hint = (
        "pass a member of the closed enum, e.g. "
        "obs.on_task_blocked(task, WaitCause.CORES) "
        "(from repro.obs import WaitCause)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # The observer itself (hook definitions plus their defensive
        # WaitCause(...) coercions) is the one sanctioned exception.
        return ctx.outside_package_dir("obs/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in _HOOKS):
                continue
            cause = _cause_argument(node)
            if cause is None:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"{func.attr}() call passes no wait cause",
                )
                continue
            if not self._is_waitcause_member(ctx, cause):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"{func.attr}() cause must be a WaitCause member, "
                    f"not {ast.unparse(cause)!r}",
                )

    @staticmethod
    def _is_waitcause_member(ctx: FileContext, node: ast.AST) -> bool:
        if not isinstance(node, ast.Attribute):
            return False
        base = ctx.imports.resolve(node.value)
        return base is not None and (
            base in _WAITCAUSE_PATHS or base.endswith(".WaitCause")
        )


#: Calls that constitute side effects/telemetry inside a policy.
_IMPURE_CALLS = frozenset(
    {"on_task_blocked", "on_task_unblocked", "on_bb_lease", "log_event"}
)

#: Base-class names marking a queue-policy implementation.
_POLICY_BASES = frozenset(
    {"QueuePolicy", "FifoPolicy", "EasyBackfillPolicy", "ConservativeBackfillPolicy"}
)


@register
class QueuePolicySelectPurity(Rule):
    """SIM071: queue-policy ``select()`` must stay pure — no obs hooks."""

    id = "SIM071"
    summary = "queue-policy select() calls an observer/telemetry hook"
    rationale = (
        "A QueuePolicy's select() answers one question — which queued "
        "requests to grant now — and the allocators call it from every "
        "grant path, including speculative re-planning.  A hook call "
        "inside select() (on_task_blocked, on_bb_lease, log_event, ...) "
        "double-counts waits and leases: the allocator sites already "
        "report every wait via the closed WaitCause enum, so a policy "
        "that also reports corrupts the profiler's ledger and breaks "
        "the LeaseBalanceMonitor's grant/release accounting."
    )
    severity = Severity.ERROR
    fix_hint = (
        "keep select() a pure function of (queue, free, now, running); "
        "telemetry belongs to the allocator grant/release sites, which "
        "report waits through WaitCause members"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_policy_class(node):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "select"
                ):
                    yield from self._check_select(ctx, item)

    @staticmethod
    def _is_policy_class(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if name in _POLICY_BASES:
                return True
        return False

    def _check_select(
        self, ctx: FileContext, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if name in _IMPURE_CALLS:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"select() calls {name}(); policies must not emit "
                    "telemetry — allocator sites own wait/lease reporting",
                )
