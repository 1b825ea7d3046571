"""The checker: one engine for every rule.

One run:

1. find the files (sorted), then read and hash each one once;
2. files whose hash matches their cache record are *unchanged*; every
   other file is parsed once — one ``ast.parse``, one
   :class:`~repro.lint.semantic.symbols.ModuleSymbols`, one pragma scan;
3. the module graph comes from those symbols' imports (from the cache
   for unchanged files); the re-analysis set is the changed files plus
   their reverse-dependency closure, which are parsed too;
4. the per-file rules run on each re-analyzed file's context, and the
   interprocedural fixpoint (taint + dimension summaries) runs over the
   same trees, seeded with cached summaries for everything else;
5. every finding passes the file's pragmas once; unknown pragma ids
   become SIM998 and an unreadable or unparseable file yields exactly
   one SIM999;
6. the remaining files replay their cached findings, and the cache is
   written back.

Every rule runs on every re-analyzed file, so a cache record is
complete whatever was selected; the selection only filters what is
reported.  Diagnostics are sorted on (path, line, col, rule, message)
and carry the propagation chain, so output is byte-identical across
repeated runs and warm/cold cache states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.pragmas import UNKNOWN_PRAGMA_RULE_ID, Pragmas
from repro.lint.rules import all_rules
from repro.lint.semantic.cache import AnalysisCache, FileRecord
from repro.lint.semantic.dimensions import DimSummary, analyze_function_dims, signature_dims
from repro.lint.semantic.modgraph import (
    ModuleGraph,
    collect_python_files,
    content_hash,
    module_name_for,
)
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
class RunStats:
    """What the last :meth:`Checker.check_paths` run did (``--stats``)."""

    files: int = 0
    #: files parsed and checked this run (changed + reverse closure)
    analyzed: list[str] = field(default_factory=list)
    #: files whose findings were replayed from the cache
    from_cache: list[str] = field(default_factory=list)
    functions: int = 0


@dataclass
class _File:
    path: str                       # as given (diagnostics + cache key)
    module: str
    sha: str = ""                   # "" = unreadable, never cached
    source: Optional[str] = None
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


def _read(path: Path) -> _File:
    file = _File(path=str(path), module=module_name_for(path))
    try:
        data = path.read_bytes()
        file.sha = content_hash(data)
        file.source = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        file.error = _parse_error(file.path, 1, 1, f"cannot read file: {error}")
    return file


class Checker:
    """Runs the selected rules — per-file and whole-program — over files
    or directory trees."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        cache_dir: "str | Path | None" = None,
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
        self.cache = AnalysisCache(cache_dir)
        self.stats = RunStats()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def check_paths(
        self,
        paths: Sequence["str | Path"],
        restrict_to: Optional[Iterable["str | Path"]] = None,
    ) -> list[Diagnostic]:
        """Lint files and directory trees; returns sorted diagnostics.

        ``restrict_to`` (e.g. the files changed since a git ref) limits
        *reporting* to those files plus every file that transitively
        imports one; the analyses still see all of ``paths``.
        """
        files = [_read(path) for path in collect_python_files(paths)]
        return self._run(files, restrict_to)

    def check_file(self, path: "str | Path") -> list[Diagnostic]:
        return self.check_paths([path])

    def check_source(self, source: str, path: str = "<string>") -> list[Diagnostic]:
        """Lint one source string (used by tests and editor integrations)."""
        file = _File(
            path=path,
            module=module_name_for(Path(path)),
            sha=content_hash(source.encode("utf-8")),
            source=source,
        )
        return self._run([file], None)

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def _run(
        self, files: list[_File], restrict_to: Optional[Iterable["str | Path"]]
    ) -> list[Diagnostic]:
        self.cache.load()
        cached: dict[str, FileRecord] = {}
        for file in files:
            record = self.cache.lookup(file.path, file.sha) if file.sha else None
            if record is None:
                self._parse(file)
            else:
                cached[file.path] = record

        graph = ModuleGraph.build(
            {
                file.module: cached[file.path].raw_imports
                if file.path in cached
                else (file.ctx.imports.imported if file.ctx else ())
                for file in files
            }
        )
        closure = graph.reverse_closure(f.module for f in files if f.path not in cached)
        fresh = [f for f in files if f.path not in cached or f.module in closure]
        for file in fresh:
            self._parse(file)

        table = SymbolTable(graph)
        for file in fresh:
            if file.ctx is not None:
                table.add(file.ctx.imports)
        fresh_paths = {f.path for f in fresh}
        taint, dims = self._summaries(
            table, [r for path, r in cached.items() if path not in fresh_paths]
        )
        findings = self._findings(fresh, table, taint, dims)

        diagnostics: list[Diagnostic] = []
        stats = RunStats(files=len(files), functions=len(table.functions))
        for file in files:
            if file.path not in fresh_paths:
                stats.from_cache.append(file.path)
                file_findings = cached[file.path].findings
            else:
                stats.analyzed.append(file.path)
                file_findings = (
                    [file.error]
                    if file.error is not None
                    else self._apply_pragmas(file, findings.get(file.path, []))
                )
                if file.sha:
                    self.cache.store(
                        file.path, self._record(file, table, taint, dims, file_findings)
                    )
            diagnostics.extend(d for d in file_findings if d.rule_id in self._reported)
        self.cache.flush()
        self.stats = stats

        if restrict_to is not None:
            wanted = {Path(p).resolve() for p in restrict_to}
            allowed = graph.reverse_closure(
                f.module for f in files if Path(f.path).resolve() in wanted
            )
            module_of = {f.path: f.module for f in files}
            diagnostics = [d for d in diagnostics if module_of[d.path] in allowed]
        return sorted(diagnostics, key=_sort_key)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    @staticmethod
    def _parse(file: _File) -> None:
        if file.ctx is not None or file.error is not None:
            return
        try:
            file.ctx = FileContext.parse(file.path, file.source, file.module)
        except SyntaxError as error:
            file.error = _parse_error(
                file.path,
                error.lineno or 1,
                (error.offset or 0) + 1,
                f"syntax error: {error.msg}",
            )

    @staticmethod
    def _summaries(
        table: SymbolTable, records: list[FileRecord]
    ) -> tuple[dict[str, TaintSummary], dict[str, DimSummary]]:
        """Cached summaries for out-of-closure modules, fresh ones for
        the rest, iterated to a fixpoint."""
        taint: dict[str, TaintSummary] = {}
        dims: dict[str, DimSummary] = {}
        for record in records:
            for qname, returns_taint in record.taint.items():
                taint[qname] = TaintSummary(returns_taint=returns_taint)
            dims.update(record.dims)
        funcs = list(table.iter_functions())
        for func in funcs:
            taint.setdefault(func.qname, TaintSummary())
            dims.setdefault(
                func.qname,
                DimSummary(param_dims=signature_dims(func), params=tuple(func.params)),
            )
        for _ in range(_FIXPOINT_CAP):
            changed = False
            for func in funcs:
                syms = table.by_module[func.module]
                new_taint, _ = analyze_function(func, syms, table, taint)
                old_taint = taint[func.qname].returns_taint
                new_chain = new_taint.returns_taint and new_taint.returns_taint.chain
                if new_chain != (old_taint and old_taint.chain):
                    taint[func.qname] = new_taint
                    changed = True
                new_dims, _ = analyze_function_dims(func, syms, table, dims)
                if new_dims.return_dim != dims[func.qname].return_dim:
                    dims[func.qname] = new_dims
                    changed = True
            if not changed:
                break
        return taint, dims

    def _findings(
        self,
        fresh: list[_File],
        table: SymbolTable,
        taint: dict[str, TaintSummary],
        dims: dict[str, DimSummary],
    ) -> dict[str, list[Diagnostic]]:
        """Per-file rule findings plus the analyses' collect pass, by path."""
        by_path: dict[str, list[Diagnostic]] = {}
        for file in fresh:
            if file.ctx is None:
                continue
            found = by_path.setdefault(file.path, [])
            for rule in self.rules:
                if rule.applies_to(file.ctx):
                    found.extend(rule.check(file.ctx))
        seen: set[tuple] = set()  # loop bodies are analyzed twice
        for func in table.iter_functions():
            syms = table.by_module[func.module]
            _, taint_findings = analyze_function(func, syms, table, taint, collect=True)
            _, dim_findings = analyze_function_dims(func, syms, table, dims, collect=True)
            for diag in (*taint_findings, *dim_findings):
                if _sort_key(diag) in seen:
                    continue
                seen.add(_sort_key(diag))
                rule = self._registry[diag.rule_id]
                by_path.setdefault(func.path, []).append(
                    replace(diag, severity=rule.severity, fix_hint=rule.fix_hint)
                )
        return by_path

    def _apply_pragmas(self, file: _File, found: list[Diagnostic]) -> list[Diagnostic]:
        pragmas = Pragmas.scan(file.source)
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

    @staticmethod
    def _record(
        file: _File,
        table: SymbolTable,
        taint: dict[str, TaintSummary],
        dims: dict[str, DimSummary],
        findings: list[Diagnostic],
    ) -> FileRecord:
        syms = file.ctx.imports if file.ctx is not None else None
        qnames = sorted(syms.functions) if syms is not None else []
        return FileRecord(
            sha=file.sha,
            raw_imports=sorted(syms.imported) if syms is not None else [],
            taint={
                q: taint[q].returns_taint
                for q in qnames
                if q in taint and taint[q].returns_taint is not None
            },
            dims={q: dims[q] for q in qnames if q in dims},
            findings=findings,
        )
