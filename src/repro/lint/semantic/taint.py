"""Determinism taint analysis (SIM100-series).

A *source* produces a value whose content or ordering differs between
runs of the same scenario + seed (set iteration order, unsorted
directory listings, wall clock, global RNG, ``id()``).  A *sink* is
DES-visible state: event scheduling, trace/telemetry export, sweep
cache-key construction.  Any tainted value reaching a sink argument is
a reproducibility bug — the simulation still passes its tests, the
traces just stop being bit-identical.

The analysis is interprocedural: each function gets a summary (does it
*return* a tainted value?), summaries propagate callee → caller along
the project call graph to a fixpoint, and findings carry the full
propagation chain so a two-hop bug reads as a path, not a location.

Wall-clock and global-RNG sources come from the catalog SIM001/SIM002
use (:mod:`repro.lint.catalog`, which states where the two differ).
Sanitizers launder taint: ``sorted()`` pins an order, ``len()``/
``min()``/``max()`` collapse to order-insensitive values, ``x.sort()``
cleans ``x`` in place.  ``sum(1 for _ in xs)`` is recognized as a
counting idiom (order-insensitive) even over unordered input.

Rules:

* **SIM100** — tainted value reaches a DES-visible sink (chain shown);
* **SIM101** — direct iteration over an unsorted filesystem
  enumeration (``os.listdir``, ``Path.iterdir/glob/rglob``);
* **SIM102** — ``id()``-keyed ordering (``sorted(..., key=id)``);
* **SIM103** — order-sensitive reduction (``sum``/``join``/``reduce``)
  over an unordered collection.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Optional

from repro.lint.catalog import (
    GLOBAL_RNG_SEEDS,
    WALL_CLOCK_CALLS,
    global_rng_family,
    is_set_expr,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.semantic.symbols import (
    FunctionAnalysis,
    FunctionInfo,
    ModuleSymbols,
    SymbolTable,
    dotted_name,
)

# ----------------------------------------------------------------------
# Catalogs
# ----------------------------------------------------------------------

#: Fully-qualified calls producing run-to-run-varying values, besides
#: the wall-clock and global-RNG catalog shared with SIM001/SIM002.
SOURCE_CALLS: dict[str, str] = {
    "os.listdir": "unsorted os.listdir() enumeration",
    "os.scandir": "unsorted os.scandir() enumeration",
    "os.walk": "unsorted os.walk() enumeration",
    "glob.glob": "unsorted glob.glob() enumeration",
    "glob.iglob": "unsorted glob.iglob() enumeration",
    "os.urandom": "os.urandom() entropy",
    "uuid.uuid1": "uuid.uuid1() wall-clock/MAC value",
    "uuid.uuid4": "uuid.uuid4() entropy",
    "id": "id()-derived value (allocator-dependent)",
    "hash": "hash() value (str hashes are salted per interpreter)",
}

#: Method names that enumerate the filesystem in arbitrary order
#: (``some_path.iterdir()``) — matched on the attribute when the
#: receiver's type is unknown.
FS_ATTR_SOURCES = frozenset({"iterdir", "glob", "rglob", "scandir"})

#: Builtins whose result is order-insensitive (or order-pinning).
SANITIZERS = frozenset(
    {"sorted", "len", "min", "max", "abs", "all", "any", "bool", "repr", "frozenset", "set"}
)

#: Fully-qualified sink calls: DES-visible state.
SINK_CALLS: dict[str, str] = {
    "heapq.heappush": "event-heap insertion",
    "heapq.heapify": "event-heap construction",
    "hashlib.sha256": "cache-key construction",
    "hashlib.sha1": "cache-key construction",
    "hashlib.md5": "cache-key construction",
    "hashlib.blake2b": "cache-key construction",
    "hashlib.new": "cache-key construction",
    "json.dump": "serialized export",
    "json.dumps": "serialized export",
    "pickle.dump": "serialized export",
    "pickle.dumps": "serialized export",
}

#: Method-name sinks, matched when the receiver cannot be resolved to a
#: project function (``env.schedule(...)``, ``writer.writerow(...)``).
SINK_METHODS: dict[str, str] = {
    "schedule": "event scheduling",
    "process": "DES process creation",
    "succeed": "event completion",
    "writerow": "CSV export",
    "writerows": "CSV export",
    "heappush": "event-heap insertion",
}

#: Project modules whose entire public surface is a sink: calling into
#: them hands the argument to trace/telemetry export or cache keying.
SINK_MODULES: dict[str, str] = {
    "repro.obs.exporters": "telemetry export",
    "repro.traces.events": "trace export",
    "repro.traces.gantt": "trace export",
    "repro.sweep.cache": "sweep cache-key construction",
}

#: Names that may be collection-mutating with tainted payloads.
_MUTATORS = frozenset({"append", "add", "extend", "insert", "update", "push", "setdefault", "appendleft"})


@dataclass(frozen=True)
class Taint:
    """Provenance of one nondeterministic value."""

    desc: str
    path: str
    line: int
    chain: tuple[str, ...] = ()

    @classmethod
    def source(cls, desc: str, path: str, line: int) -> "Taint":
        return cls(desc=desc, path=path, line=line, chain=(f"{desc} at {path}:{line}",))

    def via_call(self, callee: str, path: str, line: int) -> "Taint":
        hop = f"tainted return of {callee}, called at {path}:{line}"
        return replace(self, chain=(*self.chain, hop))


@dataclass
class TaintSummary:
    """Interprocedural facts about one function."""

    returns_taint: Optional[Taint] = None


def _is_counting_genexp(node: ast.Call) -> bool:
    """``sum(1 for _ in xs)`` — order-insensitive counting idiom."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
        return False
    return (
        len(node.args) == 1
        and isinstance(node.args[0], ast.GeneratorExp)
        and isinstance(node.args[0].elt, ast.Constant)
    )


class FunctionTaintAnalysis(FunctionAnalysis):
    """Single-function abstract interpretation over taint state."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.env: dict[str, Taint] = {}
        self.unordered: set[str] = set()
        self.summary = TaintSummary()

    def run(self) -> TaintSummary:
        self.exec_block(self.func.node.body)
        return self.summary

    # -- helpers --------------------------------------------------------
    def _merge(self, key: Optional[str], taint: Optional[Taint]) -> None:
        if key is None:
            return
        if taint is None:
            self.env.pop(key, None)
        elif key not in self.env:
            self.env[key] = taint

    def _iteration_taint(self, iter_node: ast.AST) -> Optional[Taint]:
        """Taint carried by iterating ``iter_node`` (order included)."""
        if is_set_expr(iter_node):
            return Taint.source(
                "unsorted set iteration", self.path, getattr(iter_node, "lineno", 1)
            )
        key = dotted_name(iter_node)
        if key is not None and key in self.unordered:
            return Taint.source(
                f"unsorted iteration over set {key!r}", self.path, getattr(iter_node, "lineno", 1)
            )
        fs = self._fs_enumeration(iter_node)
        if fs is not None:
            return Taint.source(fs, self.path, getattr(iter_node, "lineno", 1))
        return self.taint_of(iter_node)

    def _fs_enumeration(self, node: ast.AST) -> Optional[str]:
        """Description if ``node`` is an unsorted filesystem enumeration."""
        if not isinstance(node, ast.Call):
            return None
        resolved = self.syms.resolve(node.func)
        if resolved in SOURCE_CALLS and resolved.split(".")[0] in ("os", "glob"):
            return SOURCE_CALLS[resolved]
        if isinstance(node.func, ast.Attribute) and node.func.attr in FS_ATTR_SOURCES:
            return f"unsorted .{node.func.attr}() enumeration"
        return None

    # -- expressions ----------------------------------------------------
    def taint_of(self, node: Optional[ast.AST]) -> Optional[Taint]:
        if node is None or isinstance(node, ast.Constant):
            return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            key = dotted_name(node)
            return self.env.get(key) if key is not None else None
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left) or self.taint_of(node.right)
        if isinstance(node, ast.BoolOp):
            return next((t for v in node.values if (t := self.taint_of(v))), None)
        if isinstance(node, ast.Compare):
            return self.taint_of(node.left) or next(
                (t for c in node.comparators if (t := self.taint_of(c))), None
            )
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.Subscript):
            return self.taint_of(node.value) or self.taint_of(node.slice)
        if isinstance(node, (ast.Starred, ast.Await, ast.FormattedValue)):
            return self.taint_of(node.value)
        if isinstance(node, ast.IfExp):
            self.taint_of(node.test)
            return self.taint_of(node.body) or self.taint_of(node.orelse)
        if isinstance(node, ast.JoinedStr):
            return next((t for v in node.values if (t := self.taint_of(v))), None)
        if isinstance(node, (ast.Tuple, ast.List)):
            return next((t for v in node.elts if (t := self.taint_of(v))), None)
        if isinstance(node, ast.Set):
            for v in node.elts:
                self.taint_of(v)
            return None  # sets erase order (iterating them re-taints)
        if isinstance(node, ast.Dict):
            return next(
                (
                    t
                    for v in (*node.keys, *node.values)
                    if v is not None and (t := self.taint_of(v))
                ),
                None,
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)):
            return self._comp_taint(node)
        if isinstance(node, ast.NamedExpr):
            taint = self.taint_of(node.value)
            self._merge(dotted_name(node.target), taint)
            return taint
        if isinstance(node, ast.Lambda):
            return None
        if isinstance(node, ast.Yield):
            taint = self.taint_of(node.value)
            self._note_return(taint)
            return None
        if isinstance(node, ast.YieldFrom):
            return self.taint_of(node.value)
        # conservative default: any tainted child taints the expression
        return next(
            (t for child in ast.iter_child_nodes(node) if (t := self.taint_of(child))),
            None,
        )

    def _comp_taint(self, node: ast.AST) -> Optional[Taint]:
        saved_env = dict(self.env)
        order_taint: Optional[Taint] = None
        for gen in node.generators:
            gen_taint = self._iteration_taint(gen.iter)
            order_taint = order_taint or gen_taint
            for name in ast.walk(gen.target):
                if isinstance(name, ast.Name):
                    self._merge(name.id, gen_taint)
            for cond in gen.ifs:
                self.taint_of(cond)
        if isinstance(node, ast.DictComp):
            elt_taint = self.taint_of(node.key) or self.taint_of(node.value)
        else:
            elt_taint = self.taint_of(node.elt)
        self.env = saved_env
        if isinstance(node, ast.SetComp):
            return elt_taint  # the set erases order; element taint remains
        return elt_taint or order_taint

    def _call_taint(self, node: ast.Call) -> Optional[Taint]:
        arg_taints: list[Optional[Taint]] = [self.taint_of(a) for a in node.args]
        arg_taints += [self.taint_of(k.value) for k in node.keywords]
        any_arg = next((t for t in arg_taints if t), None)

        resolved = self.syms.resolve(node.func)
        self._check_id_keyed_sort(node, resolved)
        self._check_unordered_reduction(node, resolved)

        # Sanitizers: order-pinning / order-insensitive builtins.  Only
        # when the bare name is not shadowed by an import or local def.
        if resolved in SANITIZERS or _is_counting_genexp(node):
            return None

        # Sources ------------------------------------------------------
        if resolved in SOURCE_CALLS:
            return Taint.source(SOURCE_CALLS[resolved], self.path, node.lineno)
        if resolved in WALL_CLOCK_CALLS:
            return Taint.source("wall-clock read", self.path, node.lineno)
        if global_rng_family(resolved) and resolved not in GLOBAL_RNG_SEEDS:
            return Taint.source(f"{resolved}() global-RNG draw", self.path, node.lineno)

        # Project calls ------------------------------------------------
        target = self.table.resolve_call(self.syms, node, self.func.class_name)
        taint = any_arg
        if target is not None:
            summary = self.summaries.get(target.qname)
            if summary is not None and summary.returns_taint is not None:
                taint = summary.returns_taint.via_call(target.qname, self.path, node.lineno)

        # Sinks: only tainted *arguments* flowing in count (a tainted
        # call result is the caller's problem, reported where it lands).
        sink_desc = self._sink_desc(node, resolved, target)
        if sink_desc is not None and any_arg is not None:
            name = resolved or (
                node.func.attr if isinstance(node.func, ast.Attribute) else "<call>"
            )
            self._finding(
                node,
                "SIM100",
                f"nondeterministic value ({any_arg.desc}) reaches "
                f"{sink_desc} sink {name}()",
                chain=(
                    *any_arg.chain,
                    f"consumed by {sink_desc} sink at {self.path}:{node.lineno}",
                ),
            )
        return taint

    def _sink_desc(
        self,
        node: ast.Call,
        resolved: Optional[str],
        target: Optional[FunctionInfo],
    ) -> Optional[str]:
        if resolved in SINK_CALLS:
            return SINK_CALLS[resolved]
        if target is not None:
            callee_module: Optional[str] = target.module
        elif resolved is not None:
            callee_module = resolved.rpartition(".")[0]
        else:
            callee_module = None
        if callee_module in SINK_MODULES:
            return SINK_MODULES[callee_module]
        # method-name heuristic only for calls that are not project
        # functions (resolved project callees were handled above)
        if target is None and isinstance(node.func, ast.Attribute):
            return SINK_METHODS.get(node.func.attr)
        return None

    def _check_id_keyed_sort(self, node: ast.Call, resolved: Optional[str]) -> None:
        """SIM102: sorted(..., key=id) orders by memory address."""
        is_sort_call = resolved in ("sorted", "min", "max") or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if not is_sort_call:
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            keyed_by_id = (isinstance(kw.value, ast.Name) and kw.value.id == "id") or (
                isinstance(kw.value, ast.Lambda)
                and isinstance(kw.value.body, ast.Call)
                and isinstance(kw.value.body.func, ast.Name)
                and kw.value.body.func.id == "id"
            )
            if keyed_by_id:
                self._finding(
                    node,
                    "SIM102",
                    "ordering keyed on id() depends on allocator layout, "
                    "not on simulation state",
                )

    def _check_unordered_reduction(self, node: ast.Call, resolved: Optional[str]) -> None:
        """SIM103: order-sensitive reduction over an unordered collection."""
        candidates: list[ast.AST] = []
        if resolved in ("sum", "functools.reduce", "math.fsum") and node.args:
            if _is_counting_genexp(node):
                return
            candidates.append(node.args[-1] if resolved == "functools.reduce" else node.args[0])
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "join" and node.args:
            candidates.append(node.args[0])
        for arg in candidates:
            unordered = is_set_expr(arg) or (
                (key := dotted_name(arg)) is not None and key in self.unordered
            )
            if isinstance(arg, ast.GeneratorExp) and arg.generators:
                unordered = unordered or is_set_expr(arg.generators[0].iter)
            if unordered:
                self._finding(
                    node,
                    "SIM103",
                    "order-sensitive reduction over an unordered collection "
                    "(float addition and string joins do not commute)",
                )

    # -- statements -----------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(stmt, ast.Assign):
            taint = self.taint_of(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, stmt.value, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target, stmt.value, self.taint_of(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.taint_of(stmt.value)
            key = dotted_name(stmt.target)
            if taint is not None:
                self._merge(key, taint)
        elif isinstance(stmt, ast.Return):
            self._note_return(self.taint_of(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._exec_expr_stmt(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self.taint_of(stmt.test)
            for _ in range(2):
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.taint_of(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.taint_of(item.context_expr)
                if item.optional_vars is not None:
                    self._merge(dotted_name(item.optional_vars), taint)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.taint_of(child)
        elif isinstance(stmt, ast.Match):
            self.taint_of(stmt.subject)
            for case in stmt.cases:
                self.exec_block(case.body)

    def _assign_target(self, target: ast.AST, value: ast.AST, taint: Optional[Taint]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, value, taint)
            return
        key = dotted_name(target)
        if key is None:
            return
        if taint is None:
            self.env.pop(key, None)
        else:
            self.env[key] = taint
        if is_set_expr(value):
            self.unordered.add(key)
        else:
            self.unordered.discard(key)

    def _exec_expr_stmt(self, value: ast.expr) -> None:
        self.taint_of(value)
        if not isinstance(value, ast.Call) or not isinstance(value.func, ast.Attribute):
            return
        base_key = dotted_name(value.func.value)
        attr = value.func.attr
        if base_key is None:
            return
        if attr == "sort":
            self.env.pop(base_key, None)  # in-place order pin
            return
        if attr in _MUTATORS:
            arg_taint = next(
                (t for a in value.args if (t := self.taint_of(a))),
                next((t for k in value.keywords if (t := self.taint_of(k.value))), None),
            )
            self._merge(base_key, arg_taint)
            if attr == "add":
                self.unordered.add(base_key)

    def _exec_for(self, stmt: "ast.For | ast.AsyncFor") -> None:
        iter_taint = self._iteration_taint(stmt.iter)
        fs_desc = self._fs_enumeration(stmt.iter)
        if fs_desc is not None:
            self._finding(
                stmt.iter,
                "SIM101",
                f"{fs_desc} iterated directly; wrap in sorted() to pin order",
            )
        for name in ast.walk(stmt.target):
            if isinstance(name, ast.Name):
                if iter_taint is None:
                    self.env.pop(name.id, None)
                else:
                    self.env[name.id] = iter_taint
        for _ in range(2):  # second pass reaches loop-carried taint
            self.exec_block(stmt.body)
        self.exec_block(stmt.orelse)

    def _note_return(self, taint: Optional[Taint]) -> None:
        if taint is not None and self.summary.returns_taint is None:
            self.summary.returns_taint = taint


def analyze_function(
    func: FunctionInfo,
    syms: ModuleSymbols,
    table: SymbolTable,
    summaries: dict[str, TaintSummary],
) -> tuple[TaintSummary, list[Diagnostic]]:
    """Run the local analysis; returns (summary, findings).

    Findings may repeat (loop bodies run twice); the checker dedupes."""
    analysis = FunctionTaintAnalysis(func, syms, table, summaries)
    return analysis.run(), analysis.findings
