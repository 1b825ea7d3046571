"""The checker: one engine for every rule.

One run:

1. find the files (sorted), then read and parse each one once — one
   ``ast.parse``, one ``ast.walk`` into the node list every per-file rule
   reads, one :class:`~repro.lint.semantic.symbols.ModuleSymbols`;
2. the per-file rules run on each file's context, and the
   interprocedural fixpoint (taint + dimension summaries) runs over the
   same trees;
3. every finding passes the file's pragmas once; unknown pragma ids
   become SIM998 and an unreadable or unparseable file yields exactly
   one SIM999.

Every rule runs on every file; the selection only filters what is
reported.  Diagnostics are sorted on (path, line, col, rule, message)
and carry the propagation chain, so output is byte-identical across
repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.pragmas import UNKNOWN_PRAGMA_RULE_ID, Pragmas
from repro.lint.rules import all_rules
from repro.lint.semantic.dimensions import DimSummary, analyze_function_dims, signature_dims
from repro.lint.semantic.modgraph import collect_python_files, module_name_for
from repro.lint.semantic.symbols import SymbolTable
from repro.lint.semantic.taint import TaintSummary, analyze_function

#: Pseudo-rule for unreadable or unparseable files.
PARSE_ERROR_ID = "SIM999"

#: Rule ids that exist outside the registry proper.
_PSEUDO_RULE_IDS = frozenset({PARSE_ERROR_ID, UNKNOWN_PRAGMA_RULE_ID})

_FIXPOINT_CAP = 20


def _sort_key(diag: Diagnostic) -> tuple:
    return (diag.path, diag.line, diag.col, diag.rule_id, diag.message)


@dataclass
class _File:
    path: str                       # as given (for diagnostics)
    module: str
    ctx: Optional[FileContext] = None
    error: Optional[Diagnostic] = None  # the file's one SIM999


def _parse_error(path: str, line: int, col: int, message: str) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=line,
        col=col,
        rule_id=PARSE_ERROR_ID,
        message=message,
        severity=Severity.ERROR,
    )


def _parse(path: str, module: str, source: str) -> _File:
    try:
        return _File(path, module, ctx=FileContext.parse(path, source, module))
    except SyntaxError as error:
        return _File(
            path,
            module,
            error=_parse_error(
                path, error.lineno or 1, (error.offset or 0) + 1, f"syntax error: {error.msg}"
            ),
        )


def _read(path: Path) -> _File:
    try:
        source = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return _File(
            str(path),
            module_name_for(path),
            error=_parse_error(str(path), 1, 1, f"cannot read file: {error}"),
        )
    return _parse(str(path), module_name_for(path), source)


class Checker:
    """Runs the selected rules — per-file and whole-program — over files
    or directory trees."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        self._registry = all_rules()
        ignored = set(ignore or ())
        selected = set(select) if select else set(self._registry)
        selected -= ignored
        unknown = selected - set(self._registry) - _PSEUDO_RULE_IDS
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
        self.rules = [cls() for cls in self._registry.values()]
        #: rule ids that reach the output: the selection, SIM999 always,
        #: and SIM998 unless pragma validation is ignored
        self._reported = (selected - _PSEUDO_RULE_IDS) | {PARSE_ERROR_ID}
        if UNKNOWN_PRAGMA_RULE_ID not in ignored:
            self._reported.add(UNKNOWN_PRAGMA_RULE_ID)
        #: ids pragmas may legitimately name: every registered rule (not
        #: just the selected subset) plus the pseudo-rules.
        self._known_ids = frozenset(self._registry) | _PSEUDO_RULE_IDS

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def check_paths(self, paths: Sequence["str | Path"]) -> list[Diagnostic]:
        """Lint files and directory trees; returns sorted diagnostics."""
        return self._run([_read(path) for path in collect_python_files(paths)])

    def check_file(self, path: "str | Path") -> list[Diagnostic]:
        return self.check_paths([path])

    def check_source(self, source: str, path: str = "<string>") -> list[Diagnostic]:
        """Lint one source string (used by tests and editor integrations)."""
        return self._run([_parse(path, module_name_for(Path(path)), source)])

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def _run(self, files: list[_File]) -> list[Diagnostic]:
        table = SymbolTable(file.module for file in files)
        for file in files:
            if file.ctx is not None:
                table.add(file.ctx.imports)
        findings = self._findings(files, self._analyses(table))

        diagnostics: list[Diagnostic] = []
        for file in files:
            file_findings = (
                [file.error]
                if file.error is not None
                else self._apply_pragmas(file, findings.get(file.path, []))
            )
            diagnostics.extend(d for d in file_findings if d.rule_id in self._reported)
        return sorted(diagnostics, key=_sort_key)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    @staticmethod
    def _analyses(table: SymbolTable) -> list[Diagnostic]:
        """Every function's taint and dimension findings.

        The interprocedural fixpoint iterates every function's summaries
        until a round changes none.  In that round every function saw
        the final summaries, so its findings are the answer.  If
        ``_FIXPOINT_CAP`` rounds all change something, one more round
        only collects, with the summaries left as they are.
        """
        funcs = list(table.iter_functions())
        taint = {func.qname: TaintSummary() for func in funcs}
        dims = {func.qname: DimSummary(param_dims=signature_dims(func)) for func in funcs}
        for round_ in range(_FIXPOINT_CAP + 1):
            settling = round_ < _FIXPOINT_CAP
            changed = False
            found: list[Diagnostic] = []
            for func in funcs:
                syms = table.by_module[func.module]
                new_taint, taint_findings = analyze_function(func, syms, table, taint)
                old_taint = taint[func.qname].returns_taint
                new_chain = new_taint.returns_taint and new_taint.returns_taint.chain
                if settling and new_chain != (old_taint and old_taint.chain):
                    taint[func.qname] = new_taint
                    changed = True
                new_dims, dim_findings = analyze_function_dims(func, syms, table, dims)
                if settling and new_dims.return_dim != dims[func.qname].return_dim:
                    dims[func.qname] = new_dims
                    changed = True
                found.extend(taint_findings)
                found.extend(dim_findings)
            if not changed:
                break
        return found

    def _findings(
        self, files: list[_File], analyses: list[Diagnostic]
    ) -> dict[str, list[Diagnostic]]:
        """Per-file rule findings plus the analyses' findings, by path."""
        by_path: dict[str, list[Diagnostic]] = {}
        for file in files:
            if file.ctx is None:
                continue
            found = by_path.setdefault(file.path, [])
            for rule in self.rules:
                if rule.applies_to(file.ctx):
                    found.extend(rule.check(file.ctx))
        seen: set[tuple] = set()  # loop bodies are analyzed twice
        for diag in analyses:
            if _sort_key(diag) in seen:
                continue
            seen.add(_sort_key(diag))
            rule = self._registry[diag.rule_id]
            by_path.setdefault(diag.path, []).append(
                replace(diag, severity=rule.severity, fix_hint=rule.fix_hint)
            )
        return by_path

    def _apply_pragmas(self, file: _File, found: list[Diagnostic]) -> list[Diagnostic]:
        pragmas = Pragmas.scan(file.ctx.source)
        kept = [d for d in found if not pragmas.suppresses(d.rule_id, d.line)]
        kept.extend(
            Diagnostic(
                path=file.path,
                line=line,
                col=1,
                rule_id=UNKNOWN_PRAGMA_RULE_ID,
                message=(
                    f"unknown rule id {rule_id!r} in suppression pragma "
                    "(typo'd pragmas suppress nothing)"
                ),
                severity=Severity.ERROR,
                fix_hint="use an id from --list-rules, or drop the pragma",
            )
            for line, rule_id in pragmas.unknown_rule_ids(self._known_ids)
            if not pragmas.suppresses(UNKNOWN_PRAGMA_RULE_ID, line)
        )
        return sorted(kept, key=_sort_key)
