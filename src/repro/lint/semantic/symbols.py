"""Project symbol table: functions, methods, and call-target resolution.

Each module contributes a flat map of qualified names
(``repro.sweep.cache.point_key``, ``repro.des.environment.Environment.schedule``)
to :class:`FunctionInfo` records carrying the AST node.  A per-module
alias map (imports *and* top-level defs, relative imports included)
resolves names for the per-file rules and lets the analyses resolve an
``ast.Call`` back to a project function —
best-effort, which is the right trade for a linter: unresolved calls
simply contribute no interprocedural edge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.lint.diagnostics import Diagnostic
from repro.lint.semantic.modgraph import longest_known_prefix


def dotted_name(node: ast.AST) -> Optional[str]:
    """Source text of a ``Name``/``Attribute`` chain (``self._queue``), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str
    module: str
    path: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    params: tuple[str, ...]
    lineno: int
    class_name: Optional[str] = None


@dataclass
class ModuleSymbols:
    """Everything the analyses need from one parsed module."""

    module: str
    path: str
    tree: ast.Module
    #: local name -> absolute dotted target (imports + top-level defs);
    #: the one import resolver, for the per-file rules too
    aliases: dict[str, str] = field(default_factory=dict)
    #: qname -> FunctionInfo for every def in this module
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> set of method names (for self.x() resolution)
    classes: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def build(
        cls, module: str, path: str, tree: ast.Module, nodes: list[ast.AST]
    ) -> "ModuleSymbols":
        """Symbols of ``tree``; ``nodes`` is its ``ast.walk`` order."""
        syms = cls(module=module, path=path, tree=tree)
        syms._scan_imports(nodes)
        syms._scan_defs()
        return syms

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _scan_imports(self, nodes: list[ast.AST]) -> None:
        package_parts = self.module.split(".")[:-1]
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[: len(package_parts) - node.level + 1]
                    base = ".".join(base_parts + ([node.module] if node.module else []))
                else:
                    base = node.module or ""
                if not base:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{base}.{alias.name}"

    def _scan_defs(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, class_name=None)
                self.aliases[stmt.name] = f"{self.module}.{stmt.name}"
            elif isinstance(stmt, ast.ClassDef):
                methods: set[str] = set()
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(item, class_name=stmt.name)
                        methods.add(item.name)
                self.classes[stmt.name] = frozenset(methods)
                self.aliases[stmt.name] = f"{self.module}.{stmt.name}"

    def _add_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        class_name: Optional[str],
    ) -> None:
        scope = f"{self.module}.{class_name}" if class_name else self.module
        qname = f"{scope}.{node.name}"
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        if class_name and params and params[0] in ("self", "cls"):
            params = params[1:]
        self.functions[qname] = FunctionInfo(
            qname=qname,
            module=self.module,
            path=self.path,
            node=node,
            params=tuple(params),
            lineno=node.lineno,
            class_name=class_name,
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Absolute dotted name of a Name/Attribute chain, aliases expanded.

        Unknown heads are returned as written (``env.process`` stays
        ``env.process``) so rules can still match on suffixes.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head


class SymbolTable:
    """All modules' symbols plus cross-module call-target resolution."""

    def __init__(self, modules: Iterable[str]) -> None:
        #: every project module, parsed or not — call targets resolve
        #: against the longest of these prefixes
        self.modules = frozenset(modules)
        self.by_module: dict[str, ModuleSymbols] = {}
        self.functions: dict[str, FunctionInfo] = {}

    def add(self, syms: ModuleSymbols) -> None:
        self.by_module[syms.module] = syms
        self.functions.update(syms.functions)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """All known functions in deterministic (qname) order."""
        for qname in sorted(self.functions):
            yield self.functions[qname]

    def resolve_call(
        self,
        syms: ModuleSymbols,
        call: ast.Call,
        current_class: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """Project function targeted by ``call``, if statically known.

        Handles direct names, imported names, dotted module attributes,
        ``Class(...)`` (→ ``__init__``), and ``self.method(...)``.
        """
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and current_class is not None
        ):
            methods = syms.classes.get(current_class, frozenset())
            if func.attr in methods:
                return self.functions.get(f"{syms.module}.{current_class}.{func.attr}")
            return None
        dotted = syms.resolve(func)
        if dotted is None:
            return None
        return self.lookup_dotted(dotted)

    def lookup_dotted(self, dotted: str, _depth: int = 0) -> Optional[FunctionInfo]:
        """Map an absolute dotted name to a FunctionInfo (or constructor).

        Re-exports are chased through the owning module's alias map
        (``from repro.sweep import point_key`` resolves via
        ``repro.sweep.__init__``'s own import of ``.cache``), bounded to
        keep pathological alias cycles finite.
        """
        if _depth > 8:
            return None
        info = self.functions.get(dotted)
        if info is not None:
            return info
        init = self.functions.get(f"{dotted}.__init__")
        if init is not None:
            return init
        module = longest_known_prefix(dotted, self.modules)
        if module is None or module == dotted:
            return None
        rest = dotted[len(module) + 1 :].split(".")
        syms = self.by_module.get(module)
        if syms is None or not rest:
            return None
        target = syms.aliases.get(rest[0])
        if target is None:
            return None
        return self.lookup_dotted(".".join([target, *rest[1:]]), _depth + 1)


class FunctionAnalysis:
    """State shared by the single-function analysis passes: the summary
    being built and the findings recorded on the way (the checker keeps
    those of the fixpoint round that changed no summary).
    """

    def __init__(
        self,
        func: FunctionInfo,
        syms: ModuleSymbols,
        table: SymbolTable,
        summaries: dict,
    ) -> None:
        self.func = func
        self.syms = syms
        self.table = table
        self.summaries = summaries
        self.path = func.path
        self.findings: list[Diagnostic] = []

    def _finding(
        self, node: ast.AST, rule_id: str, message: str, chain: tuple[str, ...] = ()
    ) -> None:
        self.findings.append(
            Diagnostic(
                path=self.path,
                line=getattr(node, "lineno", self.func.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=rule_id,
                message=message,
                chain=chain,
            )
        )
