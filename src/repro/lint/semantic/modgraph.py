"""Project modules: file discovery and dotted module names.

Everything is computed from sorted inputs so the file order, and with it
the output, is deterministic regardless of filesystem enumeration order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence


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


def longest_known_prefix(dotted: str, known: frozenset[str]) -> Optional[str]:
    """Longest project-module prefix of a dotted name, if any."""
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
