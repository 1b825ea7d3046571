"""Project module graph: file discovery, content hashes, import edges.

The graph answers two questions the checker needs:

* *which project module owns a dotted name?* — used to resolve call
  targets through re-exports;
* *who imports me?* — reverse edges, used to compute the
  re-analysis closure after an edit (taint flows callee → caller and
  dimension summaries flow callee → caller, so a change in module ``m``
  can only alter diagnostics in ``m`` and its transitive dependents).

Everything is computed from sorted inputs so graph iteration order is
deterministic regardless of filesystem enumeration order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence


def content_hash(data: bytes) -> str:
    """Stable per-file fingerprint for the incremental cache."""
    return hashlib.sha256(data).hexdigest()


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, walking up through ``__init__.py``
    packages (``src/repro/network/flownet.py`` → ``repro.network.flownet``;
    a loose fixture file becomes its bare stem)."""
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) or path.stem


@dataclass
class ModuleGraph:
    """Reverse import edges between project modules only."""

    modules: frozenset[str] = frozenset()
    #: module -> project modules importing it (reverse edges)
    dependents: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, raw_imports: dict[str, Iterable[str]]) -> "ModuleGraph":
        """Graph from module -> every dotted name it imports (absolute
        form, as :class:`~repro.lint.semantic.symbols.ModuleSymbols`
        collects them); names outside the project are dropped."""
        known = frozenset(raw_imports)
        reverse: dict[str, set[str]] = {name: set() for name in known}
        for name in sorted(known):
            for imported in raw_imports[name]:
                target = _longest_known_prefix(imported, known)
                if target and target != name:
                    reverse[target].add(name)
        return cls(
            modules=known,
            dependents={name: frozenset(deps) for name, deps in sorted(reverse.items())},
        )

    def reverse_closure(self, seeds: Iterable[str]) -> frozenset[str]:
        """Seeds plus every transitive dependent — the re-analysis set."""
        closure: set[str] = set()
        frontier = [name for name in seeds if name in self.modules]
        while frontier:
            name = frontier.pop()
            if name in closure:
                continue
            closure.add(name)
            frontier.extend(self.dependents.get(name, ()))
        return frozenset(closure)

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Longest project-module prefix of a dotted name, if any."""
        return _longest_known_prefix(dotted, self.modules)


def _longest_known_prefix(dotted: str, known: frozenset[str]) -> Optional[str]:
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in known:
            return candidate
    return None


def collect_python_files(paths: Sequence["str | Path"]) -> list[Path]:
    """Deterministic file discovery: directories in sorted order,
    ``__pycache__`` skipped, each file once."""
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        candidates: Iterable[Path] = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            out.append(candidate)
    return out
