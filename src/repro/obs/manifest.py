"""Run manifests: the provenance record exported next to telemetry.

A manifest captures *what produced* a telemetry directory — the exact
:class:`~repro.config.Config` of the run, a digest of the platform
description, workflow identity, simulator version, and headline results
— so any figure or trace can be traced back to its inputs and
regenerated.  Manifests are deliberately wall-clock-free: two runs of
the same configuration produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import Config
    from repro.obs.observer import Observer
    from repro.platform.spec import PlatformSpec
    from repro.traces.events import ExecutionTrace
    from repro.workflow.model import Workflow

#: Manifest format identifier; bump on breaking layout changes.  The
#: v1 tag is still emitted for configless manifests — notably the sweep
#: cache's key documents, whose content addresses must never shift for
#: unchanged points — and always accepted on read.
MANIFEST_SCHEMA = "repro.obs.manifest/1"

#: Manifests that carry a config serialize its v2 form
#: (:meth:`repro.config.Config.to_doc`: model knobs plus observability
#: switches) under this tag.
MANIFEST_SCHEMA_V2 = "repro.obs.manifest/2"


def platform_digest(spec: "PlatformSpec") -> str:
    """Stable sha256 digest of a platform description.

    Computed over the canonical JSON serialization, so two specs that
    serialize identically share a digest regardless of construction.
    """
    from repro.platform.serialization import platform_to_json

    return hashlib.sha256(platform_to_json(spec).encode("utf-8")).hexdigest()


def build_manifest(
    *,
    config: "Optional[Config]" = None,
    platform: "Optional[PlatformSpec]" = None,
    workflow: "Optional[Workflow]" = None,
    trace: "Optional[ExecutionTrace]" = None,
    observer: "Optional[Observer]" = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble a manifest document from whichever parts are known."""
    doc: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "simulator_version": __version__,
    }
    if config is not None:
        doc["schema"] = MANIFEST_SCHEMA_V2
        doc["config"] = config.to_doc()
    if platform is not None:
        doc["platform"] = {
            "digest": platform_digest(platform),
            "n_hosts": len(platform.hosts),
            "n_links": len(platform.links),
        }
    if workflow is not None:
        doc["workflow"] = {
            "name": workflow.name,
            "n_tasks": len(workflow),
            "n_files": len(workflow.files),
        }
    if trace is not None:
        doc["result"] = {
            "makespan": trace.makespan,
            "n_tasks": len(trace.records),
            "n_io_operations": len(trace.io_operations),
        }
    if observer is not None:
        doc["metrics"] = observer.registry.names()
        doc["n_spans"] = len(observer.spans)
    if extra:
        doc.update(extra)
    return doc


def config_from_manifest(doc: dict[str, Any]) -> "Config":
    """The exact :class:`~repro.config.Config` a manifest records.

    Reads both the v2 layout (:meth:`repro.config.Config.to_doc`) and
    the v1 layout (model knobs only), whose observability switches come
    back at their defaults.
    """
    from repro.config import Config

    return Config.from_any(dict(doc["config"]))


def write_manifest(doc: dict[str, Any], path: "str | Path") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
