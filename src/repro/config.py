"""The configuration of a run: one typed object for every knob.

:class:`Config` holds

* the *model* knobs — ``bb_mode``, the placement fractions,
  ``use_amdahl_alpha``, ``network_allocator``, ``queue_policy``;
* the *observability* knobs — whether to observe, which metric groups,
  whether to run the invariant monitors, where to stream live
  telemetry, where to export the bundle, whether to build the
  critical-path profile.

:meth:`Config.from_any` is the single coercion path: it accepts a
``Config``, a plain mapping (``simulate(config={...})``), a path to a
JSON file, or ``None``, and always returns a :class:`Config`.
``repro.simulate()``, ``repro-simulate`` and the experiment modules
all take one, so a configuration written once works everywhere.
String ``bb_mode`` values are coerced to
:class:`~repro.storage.BBMode`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.network import DEFAULT_ALLOCATOR, resolve_allocator
from repro.storage import BBMode
from repro.wms.policies import DEFAULT_POLICY, policy_names, resolve_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observer

#: Schema tag serialized by :meth:`Config.to_doc`.
CONFIG_SCHEMA = "repro.api.config/2"


@dataclass
class Config:
    """Every knob of one simulation run, model and observability alike."""

    # --- model knobs -------------------------------------------------
    bb_mode: BBMode = BBMode.STRIPED
    input_fraction: float = 1.0
    intermediate_fraction: float = 1.0
    output_fraction: float = 0.0
    #: Honor per-task Amdahl alphas instead of Eq. (4)'s perfect speedup.
    use_amdahl_alpha: bool = False
    #: Named bandwidth-sharing discipline for the flow network (see
    #: :func:`repro.network.allocator_names`), or a rate-allocator
    #: callable.
    network_allocator: str = DEFAULT_ALLOCATOR
    #: Named queueing discipline for the core allocators (and, in the
    #: contended scenarios, the BB provisioner) — see
    #: :func:`repro.wms.policy_names`.  ``"fifo"`` is the paper's
    #: model; the backfill/plan policies consume the walltime estimates
    #: the engine threads through.
    queue_policy: str = DEFAULT_POLICY

    # --- observability switches ---------------------------------------
    #: Collect telemetry even when no other switch demands it.
    observe: bool = False
    #: Metric groups to collect (``None`` = all groups when observing).
    metrics: Optional[tuple] = None
    #: Run the online invariant monitors (implies observing).
    monitors: bool = False
    #: Stream live telemetry (``repro.obs.live/1``) into this directory.
    live_dir: Optional[str] = None
    #: Export the telemetry bundle (manifest, trace, CSVs) here.
    obs_dir: Optional[str] = None
    #: Build the critical-path profile after the run.
    profile: bool = False

    def __post_init__(self) -> None:
        self.bb_mode = BBMode(self.bb_mode)
        resolve_allocator(self.network_allocator)  # raises with the choices
        if self.queue_policy not in policy_names():
            resolve_policy(self.queue_policy)  # raises with the choices
        if self.metrics is not None:
            self.metrics = tuple(self.metrics)
        if self.live_dir is not None:
            self.live_dir = str(self.live_dir)
        if self.obs_dir is not None:
            self.obs_dir = str(self.obs_dir)

    # ------------------------------------------------------------------
    # Coercion
    # ------------------------------------------------------------------
    @classmethod
    def from_any(
        cls,
        value: "Config | Mapping[str, Any] | str | Path | None",
    ) -> "Config":
        """Coerce any accepted configuration shape to a :class:`Config`.

        ``None`` → defaults; ``Config`` passes through unchanged; a
        mapping may mix model and observability keys (a :meth:`to_doc`
        document, or a v1 manifest's model-only config); a path names a
        JSON file holding such a mapping.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            doc = json.loads(Path(value).read_text())
            if not isinstance(doc, dict):
                raise ValueError(
                    f"config file {value!s} must hold a JSON object, "
                    f"got {type(doc).__name__}"
                )
            return cls.from_any(doc)
        if isinstance(value, Mapping):
            known = {f.name for f in fields(cls)}
            extra = set(value) - known - {"schema"}
            if extra:
                raise TypeError(
                    f"unknown config keys: {', '.join(sorted(extra))} "
                    f"(choose from {', '.join(sorted(known))})"
                )
            return cls(**{k: v for k, v in value.items() if k != "schema"})
        raise TypeError(
            f"cannot build a Config from {type(value).__name__!r}"
        )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def wants_observer(self) -> bool:
        """Whether any switch requires the run to be observed."""
        return bool(
            self.observe
            or self.metrics is not None
            or self.monitors
            or self.live_dir is not None
            or self.obs_dir is not None
            or self.profile
        )

    def make_observer(self) -> "Optional[Observer]":
        """Build the run's :class:`~repro.obs.Observer`, or ``None``.

        Returns an observer (with the live bus attached when
        ``live_dir`` is set) iff :meth:`wants_observer`.
        """
        if not self.wants_observer():
            return None
        from repro.obs import Observer

        observer = Observer(
            metrics=list(self.metrics) if self.metrics is not None else None,
            monitors=self.monitors,
        )
        if self.live_dir is not None:
            from repro.obs import LiveBus

            observer.attach_bus(LiveBus(self.live_dir))
        return observer

    def replace(self, **changes: Any) -> "Config":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization (the manifest v2 form)
    # ------------------------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        """JSON-ready document; :meth:`from_any` round-trips it exactly."""
        doc: dict[str, Any] = {"schema": CONFIG_SCHEMA}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, BBMode):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        return doc
