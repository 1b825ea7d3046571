"""Configuration: ``[tool.repro-lint]`` in pyproject.toml.

Recognized keys (all optional)::

    [tool.repro-lint]
    paths = ["src"]            # default lint targets when CLI gives none
    select = ["SIM001"]        # run only these rules
    ignore = ["SIM010"]        # never run these rules
    baseline = ".repro-lint-baseline"   # grandfathered-findings file

CLI flags override the file; ``--select`` and ``--ignore`` replace the
corresponding config lists entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

try:
    import tomllib
except ImportError:  # Python 3.10: stdlib tomllib is 3.11+; config is
    tomllib = None   # optional, so fall back to built-in defaults.


@dataclass
class LintConfig:
    paths: list[str] = field(default_factory=lambda: ["src"])
    select: Optional[list[str]] = None
    ignore: Optional[list[str]] = None
    baseline: Optional[str] = None

    @classmethod
    def load(cls, start: "str | Path | None" = None) -> "LintConfig":
        """Find and parse the nearest pyproject.toml at/above ``start``."""
        pyproject = find_pyproject(Path(start) if start else Path.cwd())
        if pyproject is None or tomllib is None:
            return cls()
        try:
            doc = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError):
            return cls()
        table = doc.get("tool", {}).get("repro-lint", {})
        config = cls()
        if isinstance(table.get("paths"), list):
            config.paths = [str(p) for p in table["paths"]]
        if isinstance(table.get("select"), list):
            config.select = [str(r) for r in table["select"]]
        if isinstance(table.get("ignore"), list):
            config.ignore = [str(r) for r in table["ignore"]]
        if isinstance(table.get("baseline"), str):
            config.baseline = table["baseline"]
        return config


def find_pyproject(start: Path) -> Optional[Path]:
    for directory in [start, *start.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None
