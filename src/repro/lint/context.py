"""Per-file analysis context shared by all rules.

A :class:`FileContext` is built once per file by the checker and handed
to every rule: the parsed AST and its nodes from one ``ast.walk`` (rules
iterate :attr:`FileContext.nodes` rather than walking the tree again),
the module's symbols — whose alias map resolves local names back to their
fully-qualified origins (so ``from time import time as clock; clock()``
is still recognized as ``time.time``), the same resolver the
whole-program analyses use — and the file's path *inside* the ``repro``
package (so rules can scope themselves to ``wms/``, ``des/``, etc.).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import Optional

from repro.lint.semantic.symbols import ModuleSymbols


@dataclass
class FileContext:
    """Everything a rule needs to analyze one file."""

    path: str                       # path as given (for diagnostics)
    source: str
    tree: ast.Module
    #: every node of ``tree`` in ``ast.walk`` order, walked once
    nodes: list[ast.AST]
    #: resolver for names (``ctx.imports.resolve(node)``) and the
    #: whole-program analyses' view of this module
    imports: ModuleSymbols
    #: Path relative to the ``repro`` package root ("wms/engine.py"),
    #: or None when the file is not inside a ``repro`` package (e.g.
    #: test fixtures) — scoped rules treat None as "in scope".
    package_relpath: Optional[str] = None

    @classmethod
    def parse(cls, path: str, source: str, module: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        nodes = list(ast.walk(tree))
        return cls(
            path=path,
            source=source,
            tree=tree,
            nodes=nodes,
            imports=ModuleSymbols.build(module, path, tree, nodes),
            package_relpath=package_relpath(path),
        )

    def in_package_dir(self, *prefixes: str) -> bool:
        """True when the file lives under one of ``prefixes`` inside the
        ``repro`` package — or is outside any package (fixtures)."""
        if self.package_relpath is None:
            return True
        return any(self.package_relpath.startswith(p) for p in prefixes)

    def outside_package_dir(self, *prefixes: str) -> bool:
        """True unless the file lives under one of ``prefixes``."""
        if self.package_relpath is None:
            return True
        return not any(self.package_relpath.startswith(p) for p in prefixes)


def package_relpath(path: str) -> Optional[str]:
    """Path relative to the last ``repro`` directory component, if any.

    ``src/repro/wms/engine.py`` → ``wms/engine.py``;
    ``tests/lint/fixtures/sim001_bad.py`` → ``None``.
    """
    parts = PurePath(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            return "/".join(parts[i + 1 :])
    return None


def iter_function_defs(ctx: FileContext):
    """Yield every function/method definition in the module."""
    for node in ctx.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def is_generator(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    """True if ``func`` itself contains a yield (ignoring nested defs)."""
    for node in walk_shallow(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def walk_shallow(func: ast.AST):
    """Walk a function body without descending into nested function or
    class definitions (their yields/calls belong to a different scope)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
