"""Unit/dimension dataflow analysis (SIM200-series).

The model's load-bearing quantities — byte counts, simulated seconds,
bytes/s bandwidths, flops, cores, burst-buffer granules — are all bare
``float``\\ s in Python, so a bytes-vs-bandwidth mixup is invisible to
the type system and indistinguishable from modeling error in the
validation plots.  This analysis recovers dimensions from three cues:

* **units constants** — ``3 * units.GiB`` is bytes because ``GiB``
  comes from :mod:`repro.platform.units`;
* **naming conventions** — ``size``/``n_bytes`` is bytes,
  ``duration``/``makespan`` is seconds, ``bandwidth``/``bw`` is
  bytes/s, ``core_speed`` is flops/s, ``n_cores`` is cores — applied
  to locals, parameters, *and* attribute accesses;
* **call summaries** — a project function whose returns all carry one
  dimension exports it to its callers (fixpoint, callee → caller).

Dimensions form a tiny abelian-group algebra (exponent vectors over
the base units), so ``bytes / seconds`` is bytes/s and
``bytes / (bytes/s)`` is seconds.  Unknown is ⊤ and silences checks.

Rules:

* **SIM201** — addition/subtraction/comparison of two *known,
  different* dimensions (``transfer_bytes + startup_s``);
* **SIM202** — bare numeric literal (``>= 1000``, the threshold SIM010
  shares) passed to a dimension-typed parameter — magnitudes belong in
  units vocabulary (``32 * MiB``), not inline.

Unit constants and the threshold come from :mod:`repro.lint.catalog`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.lint.catalog import MAGNITUDE_THRESHOLD, UNITS
from repro.lint.diagnostics import Diagnostic
from repro.lint.semantic.symbols import (
    FunctionAnalysis,
    FunctionInfo,
    ModuleSymbols,
    SymbolTable,
    dotted_name,
)

# ----------------------------------------------------------------------
# The dimension algebra: exponent vectors over base units.
# ----------------------------------------------------------------------

Dim = tuple[tuple[str, int], ...]  # sorted ((base, exponent), ...), canonical

DIMENSIONLESS: Dim = ()


def _dim(**exps: int) -> Dim:
    return tuple(sorted((base, e) for base, e in exps.items() if e))


BYTES = _dim(byte=1)
SECONDS = _dim(second=1)
BYTES_PER_S = _dim(byte=1, second=-1)
FLOPS = _dim(flop=1)
FLOPS_PER_S = _dim(flop=1, second=-1)
CORES = _dim(core=1)
GRANULES = _dim(granule=1)

_NAMES = {
    BYTES: "bytes",
    SECONDS: "seconds",
    BYTES_PER_S: "bytes/s",
    FLOPS: "flops",
    FLOPS_PER_S: "flops/s",
    CORES: "cores",
    GRANULES: "granules",
    DIMENSIONLESS: "dimensionless",
}


def dim_name(dim: Dim) -> str:
    if dim in _NAMES:
        return _NAMES[dim]
    return "·".join(f"{base}^{e}" for base, e in dim)


def dim_mul(a: Dim, b: Dim) -> Dim:
    exps = dict(a)
    for base, e in b:
        exps[base] = exps.get(base, 0) + e
    return tuple(sorted((base, e) for base, e in exps.items() if e))


def dim_div(a: Dim, b: Dim) -> Dim:
    return dim_mul(a, tuple((base, -e) for base, e in b))


# ----------------------------------------------------------------------
# Inference cues
# ----------------------------------------------------------------------

#: repro.platform.units constants → dimension of values built from them.
UNITS_CONSTANTS: dict[str, Dim] = {
    name: next(dim for dim, label in _NAMES.items() if label == dim_label)
    for name, (dim_label, _) in UNITS.items()
}

UNITS_MODULE = "repro.platform.units"

#: identifier tokens → dimension (matched on whole ``_``-split words).
_TOKEN_DIMS: dict[str, Dim] = {
    "bytes": BYTES,
    "nbytes": BYTES,
    "size": BYTES,
    "sizes": BYTES,
    "capacity": BYTES,
    "footprint": BYTES,
    "second": SECONDS,
    "seconds": SECONDS,
    "duration": SECONDS,
    "latency": SECONDS,
    "makespan": SECONDS,
    "walltime": SECONDS,
    "runtime": SECONDS,
    "timeout": SECONDS,
    "deadline": SECONDS,
    "bandwidth": BYTES_PER_S,
    "bw": BYTES_PER_S,
    "throughput": BYTES_PER_S,
    "flops": FLOPS,
    "cores": CORES,
    "ncores": CORES,
    "cpus": CORES,
    "granules": GRANULES,
}

#: tokens that must match as suffix words only when trailing ("_s").
_SUFFIX_DIMS: dict[str, Dim] = {"s": SECONDS, "sec": SECONDS, "secs": SECONDS}

#: The repo (like the paper) quotes rates through scale constants —
#: ``bandwidth = 6.5 * GB`` means 6.5 GB/s, ``core_speed = 36.8 *
#: GFLOPS`` is already flop/s — so a magnitude-family value may land in
#: the per-second slot (and vice versa) at *binding* sites (assignment
#: to a named variable, argument to a named parameter), where the name
#: supplies the missing /s.  Arithmetic mixes are still flagged.
_MAGNITUDE_COMPAT: frozenset[tuple[Dim, Dim]] = frozenset(
    {
        (BYTES, BYTES_PER_S),
        (BYTES_PER_S, BYTES),
        (FLOPS, FLOPS_PER_S),
        (FLOPS_PER_S, FLOPS),
    }
)


def magnitude_compatible(value_dim: Dim, slot_dim: Dim) -> bool:
    return (value_dim, slot_dim) in _MAGNITUDE_COMPAT


def dim_from_name(name: str) -> Optional[Dim]:
    """Dimension implied by an identifier, if the convention is clear."""
    tokens = [t for t in name.lower().split("_") if t]
    if not tokens:
        return None
    if tokens[-1] in _SUFFIX_DIMS and len(tokens) > 1:
        return _SUFFIX_DIMS[tokens[-1]]
    if "per" in tokens:  # bytes_per_s, flops_per_core: explicit ratios
        idx = tokens.index("per")
        num = dim_from_name("_".join(tokens[:idx]))
        den = dim_from_name("_".join(tokens[idx + 1 :]))
        if num is not None and den is not None:
            return dim_div(num, den)
        return None
    if tokens[-1] == "speed":
        return FLOPS_PER_S
    for token in reversed(tokens):  # rightmost word wins: peak_bw → bytes/s
        if token in _TOKEN_DIMS:
            return _TOKEN_DIMS[token]
    return None


@dataclass
class DimSummary:
    """Interprocedural facts: parameter and return dimensions."""

    param_dims: dict[str, Dim]
    return_dim: Optional[Dim] = None


def signature_dims(func: FunctionInfo) -> dict[str, Dim]:
    dims: dict[str, Dim] = {}
    for param in func.params:
        dim = dim_from_name(param)
        if dim is not None:
            dims[param] = dim
    return dims


class FunctionDimAnalysis(FunctionAnalysis):
    """Single-function dimension propagation + mismatch detection."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        summary = self.summaries.get(self.func.qname)
        self.env: dict[str, Dim] = (
            dict(summary.param_dims) if summary is not None else signature_dims(self.func)
        )
        self.return_dims: list[Optional[Dim]] = []

    def run(self) -> DimSummary:
        self.exec_block(self.func.node.body)
        known = {d for d in self.return_dims if d is not None}
        return_dim = known.pop() if len(known) == 1 and None not in self.return_dims else None
        return DimSummary(param_dims=signature_dims(self.func), return_dim=return_dim)

    # -- expression dimension -------------------------------------------
    def dim_of(self, node: Optional[ast.AST]) -> Optional[Dim]:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return DIMENSIONLESS if isinstance(node.value, (int, float)) and not isinstance(node.value, bool) else None
        if isinstance(node, (ast.Name, ast.Attribute)):
            return self._name_dim(node)
        if isinstance(node, ast.BinOp):
            return self._binop_dim(node)
        if isinstance(node, ast.UnaryOp):
            return self.dim_of(node.operand)
        if isinstance(node, ast.Call):
            return self._call_dim(node)
        if isinstance(node, ast.IfExp):
            body = self.dim_of(node.body)
            orelse = self.dim_of(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            return None
        if isinstance(node, (ast.Subscript, ast.Starred, ast.Await)):
            return self.dim_of(node.value)
        if isinstance(node, ast.NamedExpr):
            dim = self.dim_of(node.value)
            key = dotted_name(node.target)
            if key is not None and dim is not None:
                self.env[key] = dim
            return dim
        return None

    def _name_dim(self, node: ast.AST) -> Optional[Dim]:
        key = dotted_name(node)
        if key is not None and key in self.env:
            return self.env[key]
        # units constants, resolved through import aliases
        dotted = self.syms.resolve(node)
        if dotted is not None:
            head, _, last = dotted.rpartition(".")
            if last in UNITS_CONSTANTS and (head == UNITS_MODULE or head == "units" or not head):
                return UNITS_CONSTANTS[last]
        # naming convention on the trailing identifier word
        trailing = key.rsplit(".", 1)[-1] if key else None
        if trailing is not None:
            return dim_from_name(trailing)
        return None

    def _binop_dim(self, node: ast.BinOp) -> Optional[Dim]:
        left = self.dim_of(node.left)
        right = self.dim_of(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if (
                left is not None
                and right is not None
                and left != right
                # adding a bare literal to a dimensioned value is SIM202
                # territory, not a cross-dimension mix
                and DIMENSIONLESS not in (left, right)
            ):
                self._finding(
                    node,
                    "SIM201",
                    f"cross-dimension {'addition' if isinstance(node.op, ast.Add) else 'subtraction'}: "
                    f"{dim_name(left)} {'+' if isinstance(node.op, ast.Add) else '-'} {dim_name(right)}",
                )
                return None
            return left if left is not None else right
        if isinstance(node.op, ast.Mult):
            if left is None or right is None:
                return None
            return dim_mul(left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if left is None or right is None:
                return None
            return dim_div(left, right)
        if isinstance(node.op, ast.Mod):
            return left
        return None

    def _check_compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)) for op in node.ops):
            return
        dims = [self.dim_of(op) for op in operands]
        known = [
            (op, d)
            for op, d in zip(operands, dims)
            if d is not None and d != DIMENSIONLESS
        ]
        for (_, a), (op_b, b) in zip(known, known[1:]):
            if a != b:
                self._finding(
                    node,
                    "SIM201",
                    f"cross-dimension comparison: {dim_name(a)} vs {dim_name(b)}",
                )
                return

    def _call_dim(self, node: ast.Call) -> Optional[Dim]:
        for arg in node.args:
            self.dim_of(arg)
        for kw in node.keywords:
            self.dim_of(kw.value)
        target = self.table.resolve_call(self.syms, node, self.func.class_name)
        if target is None:
            if self.syms.resolve(node.func) in ("float", "int", "abs", "round"):
                return self.dim_of(node.args[0]) if node.args else None
            return None
        summary = self.summaries.get(target.qname)
        param_dims = summary.param_dims if summary is not None else signature_dims(target)
        self._check_call_args(node, target.qname, target.params, param_dims)
        return summary.return_dim if summary is not None else None

    def _check_call_args(
        self,
        node: ast.Call,
        qname: str,
        params: tuple[str, ...],
        param_dims: dict[str, Dim],
    ) -> None:
        """SIM202 + SIM201 at call boundaries."""
        if not param_dims:
            return
        bindings: list[tuple[str, ast.expr]] = []
        for param, arg in zip(params, node.args):
            bindings.append((param, arg))
        for kw in node.keywords:
            if kw.arg is not None:
                bindings.append((kw.arg, kw.value))
        for param, arg in bindings:
            expected = param_dims.get(param)
            if expected is None:
                continue
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, (int, float))
                and not isinstance(arg.value, bool)
                and abs(arg.value) >= MAGNITUDE_THRESHOLD
            ):
                self._finding(
                    arg,
                    "SIM202",
                    f"bare magnitude {arg.value!r} passed to {dim_name(expected)}-typed "
                    f"parameter {param!r} of {qname}(); build it from "
                    "repro.platform.units constants",
                )
                continue
            actual = self.dim_of(arg)
            if (
                actual is not None
                and actual != DIMENSIONLESS
                and actual != expected
                and not magnitude_compatible(actual, expected)
            ):
                self._finding(
                    arg,
                    "SIM201",
                    f"{dim_name(actual)} value passed to {dim_name(expected)}-typed "
                    f"parameter {param!r} of {qname}()",
                )

    # -- statements -----------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            dim = self.dim_of(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, dim)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_target(stmt.target, self.dim_of(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            target_dim = self.dim_of(stmt.target)
            value_dim = self.dim_of(stmt.value)
            if (
                isinstance(stmt.op, (ast.Add, ast.Sub))
                and target_dim is not None
                and value_dim is not None
                and DIMENSIONLESS not in (target_dim, value_dim)
                and target_dim != value_dim
            ):
                self._finding(
                    stmt,
                    "SIM201",
                    f"cross-dimension augmented assignment: {dim_name(target_dim)} "
                    f"{'+=' if isinstance(stmt.op, ast.Add) else '-='} {dim_name(value_dim)}",
                )
        elif isinstance(stmt, ast.Return):
            self.return_dims.append(self.dim_of(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.dim_of(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.dim_of(stmt.iter)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.dim_of(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.dim_of(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.dim_of(item.context_expr)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.dim_of(child)

    def _assign_target(self, target: ast.AST, dim: Optional[Dim]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            return  # unpacking: no per-element dims
        key = dotted_name(target)
        if key is None:
            return
        if dim is None or dim == DIMENSIONLESS:
            # fall back to the naming convention; don't pin "x = 0"
            self.env.pop(key, None)
        else:
            name_dim = dim_from_name(key.rsplit(".", 1)[-1])
            if name_dim is not None and name_dim != dim:
                if magnitude_compatible(dim, name_dim):
                    # the name supplies the /s: bandwidth = 6.5 * GB
                    dim = name_dim
                else:
                    self._finding(
                        target,
                        "SIM201",
                        f"{dim_name(dim)} value assigned to {dim_name(name_dim)}-named "
                        f"variable {key!r}",
                    )
            self.env[key] = dim


def analyze_function_dims(
    func: FunctionInfo,
    syms: ModuleSymbols,
    table: SymbolTable,
    summaries: dict[str, DimSummary],
) -> tuple[DimSummary, list[Diagnostic]]:
    analysis = FunctionDimAnalysis(func, syms, table, summaries)
    return analysis.run(), analysis.findings
