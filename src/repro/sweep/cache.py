"""Content-addressed result cache for sweep points.

An entry lives at ``<cache-dir>/<key[:2]>/<key>.json``, where ``key``
is the sha256 of the point's provenance document (:func:`point_key_doc`:
simulator version, sweep id, point function, spec version and
parameters), so any change addresses a new entry and stale ones are
never read again.  Entries are written atomically, so concurrent
workers and sweeps can share one directory.  ``docs/SWEEP.md`` has the
full layout and invalidation rules.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.manifest import build_manifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.spec import SweepSpec

#: Cache entry format identifier; bump on breaking layout changes
#: (doubles as part of the key, so a bump invalidates every entry).
CACHE_SCHEMA = "repro.sweep.cache/1"

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / ".cache"

#: Sentinel distinguishing "no entry" from "entry with value None".
_MISS = object()


def point_key_doc(spec: "SweepSpec", params: dict[str, Any]) -> dict[str, Any]:
    """The provenance document a point's cache key is computed over."""
    return build_manifest(
        extra={
            "cache_schema": CACHE_SCHEMA,
            "sweep": {
                "sweep_id": spec.sweep_id,
                "func": spec.func,
                "version": spec.version,
            },
            "params": dict(params),
        }
    )


def point_key(spec: "SweepSpec", params: dict[str, Any]) -> str:
    """Content address of one point: sha256 over the canonical key doc."""
    canonical = json.dumps(
        point_key_doc(spec, params), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepCache:
    """On-disk store of point results, addressed by content key."""

    def __init__(self, directory: "str | Path" = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def lookup(self, key: str) -> Any:
        """The cached value for ``key``, or the :data:`MISS` sentinel."""
        try:
            doc = json.loads(self._path(key).read_text())
        except (OSError, json.JSONDecodeError):
            doc = None
        # A missing, corrupt or foreign-schema entry is a miss, not a
        # crash: the point simply recomputes and overwrites it.
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != CACHE_SCHEMA
            or "value" not in doc
        ):
            self.misses += 1
            return _MISS
        self.hits += 1
        return doc["value"]

    @staticmethod
    def is_miss(value: Any) -> bool:
        return value is _MISS

    def store(self, key: str, value: Any, key_doc: dict[str, Any]) -> Path:
        """Persist ``value`` under ``key`` (atomic, concurrency-safe)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "manifest": key_doc,
            "value": value,
        }
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))
