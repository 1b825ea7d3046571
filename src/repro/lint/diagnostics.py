"""Diagnostic records emitted by lint rules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are invariant violations (the simulation may be
    silently wrong); ``WARNING`` findings are suspicious patterns that
    occasionally have legitimate uses (suppress with a justified pragma).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: rule ID + location + message + how to fix it.

    Interprocedural findings additionally carry ``chain`` — the
    source-to-sink propagation path, one human-readable hop per entry —
    so a cross-module bug reads as a path, not a bare location.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str = field(compare=False)
    severity: Severity = field(compare=False, default=Severity.ERROR)
    fix_hint: str = field(compare=False, default="")
    chain: tuple[str, ...] = field(compare=False, default=())

    def render(self) -> str:
        """Human-readable form (``path:line:col: ID message`` + chain)."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )
        if self.fix_hint:
            text += f" (fix: {self.fix_hint})"
        for hop in self.chain:
            text += f"\n    | {hop}"
        return text

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (``--format json``)."""
        doc: dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "fix_hint": self.fix_hint,
        }
        if self.chain:
            doc["chain"] = list(self.chain)
        return doc
