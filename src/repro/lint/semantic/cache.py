"""Incremental analysis cache.

One JSON document maps each checked file to its content hash, raw
import list, serialized interprocedural summaries, and post-pragma
findings of every rule (per-file and whole-program).  On a warm run the
checker re-parses and re-analyzes only files whose hash changed plus
their reverse-dependency closure; for everything else the cached
summaries feed the fixpoint and the cached findings are replayed
verbatim.  Per-file findings depend only on the file's own text and
whole-program findings only on the file and what it imports, so warm
diagnostics are identical to a cold run by construction.

The document is keyed on :data:`CACHE_SCHEMA` *and* a digest of the
linter's own source, so editing a rule or an analysis invalidates it.
The cache is advisory: mismatches, unreadable files, and partial
records all degrade to "treat as changed", never to wrong results.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

from repro.lint.diagnostics import Diagnostic
from repro.lint.semantic.dimensions import Dim, DimSummary
from repro.lint.semantic.taint import Taint

#: Version of the record layout below.
CACHE_SCHEMA = "repro-lint/2"

CACHE_FILENAME = "lint-cache.json"


@functools.lru_cache(maxsize=None)
def linter_digest() -> str:
    """Hash of every ``repro/lint/**/*.py`` source: any edit to a rule or
    an analysis changes it, so stale findings are never replayed."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _dim(doc: "Optional[list]") -> Optional[Dim]:
    """A dimension from JSON (``[["byte", 1], ...]``; tuples dump as lists)."""
    return None if doc is None else tuple((base, exp) for base, exp in doc)


@dataclass
class FileRecord:
    """Cached facts for one file."""

    sha: str
    raw_imports: list[str]
    #: qname -> the taint its return carries (tainted functions only)
    taint: dict[str, Taint]
    dims: dict[str, DimSummary]
    findings: list[Diagnostic]

    def to_doc(self) -> dict[str, Any]:
        return {
            "sha": self.sha,
            "imports": sorted(self.raw_imports),
            "taint": {qname: asdict(taint) for qname, taint in sorted(self.taint.items())},
            "dims": {
                qname: {
                    "order": list(summary.params),
                    "params": dict(sorted(summary.param_dims.items())),
                    "return": summary.return_dim,
                }
                for qname, summary in sorted(self.dims.items())
            },
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "FileRecord":
        return cls(
            sha=doc["sha"],
            raw_imports=list(doc.get("imports", [])),
            taint={
                qname: Taint(**{**t, "chain": tuple(t["chain"])})
                for qname, t in doc.get("taint", {}).items()
            },
            dims={
                qname: DimSummary(
                    param_dims={
                        p: _dim(d) for p, d in entry.get("params", {}).items() if d is not None
                    },
                    return_dim=_dim(entry.get("return")),
                    params=tuple(entry.get("order", ())),
                )
                for qname, entry in doc.get("dims", {}).items()
            },
            findings=[Diagnostic.from_dict(f) for f in doc.get("findings", [])],
        )


class AnalysisCache:
    """Load/store the per-file record map, keyed by path as given."""

    def __init__(self, directory: "str | Path | None") -> None:
        self.directory = Path(directory) if directory is not None else None
        self.records: dict[str, FileRecord] = {}

    @property
    def path(self) -> Optional[Path]:
        return self.directory / CACHE_FILENAME if self.directory else None

    def load(self) -> None:
        if self.path is None or not self.path.is_file():
            return
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if doc.get("schema") != CACHE_SCHEMA or doc.get("linter") != linter_digest():
            return
        for key, entry in doc.get("files", {}).items():
            try:
                self.records[key] = FileRecord.from_doc(entry)
            except (KeyError, TypeError, ValueError):
                continue

    def lookup(self, key: str, sha: str) -> Optional[FileRecord]:
        record = self.records.get(key)
        if record is not None and record.sha == sha:
            return record
        return None

    def store(self, key: str, record: FileRecord) -> None:
        self.records[key] = record

    def flush(self) -> None:
        if self.path is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": CACHE_SCHEMA,
            "linter": linter_digest(),
            "files": {key: self.records[key].to_doc() for key in sorted(self.records)},
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)
