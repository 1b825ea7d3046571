"""The one-call public API: :func:`simulate` a workflow on a platform.

Everything the library can do is reachable through its layered modules,
but the common case — "here is a platform, here is a workflow, run it"
— should not require knowing which of them to assemble.  This module is
that front door::

    import repro

    result = repro.simulate("platform.json", "workflow.json")
    print(result.makespan)

``platform`` and ``workflow`` accept either in-memory objects
(:class:`~repro.platform.PlatformSpec`, :class:`~repro.workflow.Workflow`)
or paths to JSON descriptions (platform JSON / WfCommons trace).  The
run itself is :func:`repro.simulator._execute`, the one run path.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.config import Config
from repro.platform import PlatformSpec, platform_from_json
from repro.simulator import _execute, _host_roles
from repro.traces.events import ExecutionTrace
from repro.workflow.model import Workflow
from repro.workflow.wfformat import workflow_from_wfformat

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs import Observer


class Result:
    """Outcome of one :func:`simulate` call.

    Thin, read-only view over the run's artifacts: the execution
    ``trace`` (per-task records), the ``makespan``, and — when the run
    was observed — the collected ``telemetry``.  ``spec`` and
    ``workflow`` are the run's loaded inputs.
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        config: Config,
        observer: "Observer | None",
        spec: PlatformSpec,
        workflow: Workflow,
    ) -> None:
        self.trace = trace
        self.config = config
        self.observer = observer
        self.spec = spec
        self.workflow = workflow
        self._profile = None

    @property
    def makespan(self) -> float:
        """End-to-end simulated execution time in seconds."""
        return self.trace.makespan

    def profile(self):
        """The run's critical-path :class:`~repro.profile.Profile`.

        Built lazily from the trace (refined with the observer's wait
        intervals when the run was observed) and cached.  The profile's
        attribution is guaranteed — by :class:`~repro.profile.Profile`'s
        own invariant — to sum to :attr:`makespan` within relative 1e-9,
        so the library's two answers to "how long did this run take?"
        can never drift apart.
        """
        if self._profile is None:
            from repro.profile import build_profile

            self._profile = build_profile(self.trace, observer=self.observer)
        return self._profile

    @property
    def critical_path(self):
        """The realized critical path (list of attributed segments)."""
        return self.profile().critical_path

    @property
    def telemetry(self):
        """The run's :class:`~repro.obs.probes.MetricRegistry`.

        ``None`` unless the run was given an observer.
        """
        if self.observer is None:
            return None
        return self.observer.registry

    @property
    def events(self):
        """The run's structured event log (``repro.obs.log/1`` records).

        ``None`` unless the run was given an observer.
        """
        if self.observer is None:
            return None
        return self.observer.events

    def export_telemetry(self, directory: "str | Path") -> Path:
        """Write manifest + Perfetto trace + metric CSVs to ``directory``.

        Requires the run to have been observed (``ValueError``
        otherwise).  Once :meth:`profile` has been built, it is written
        too (``profile.json``, ``profile.folded`` and the Perfetto
        critical-path lane).
        """
        from repro.obs import build_manifest, export_run

        if self.observer is None:
            raise ValueError("the run was made without an observer")
        manifest = build_manifest(
            config=self.config,
            platform=self.spec,
            workflow=self.workflow,
            trace=self.trace,
            observer=self.observer,
        )
        return export_run(
            self.observer, directory, manifest=manifest, profile=self._profile
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        observed = "observed" if self.observer is not None else "unobserved"
        return (
            f"<Result {self.trace.workflow_name!r}: "
            f"{len(self.trace.records)} tasks, "
            f"makespan {self.makespan:.3f}s, {observed}>"
        )


def simulate(
    platform: "PlatformSpec | str | Path",
    workflow: "Workflow | str | Path",
    *,
    config: "Config | Mapping[str, object] | str | Path | None" = None,
    observer: "Observer | bool | None" = None,
) -> Result:
    """Simulate ``workflow`` on ``platform`` and return a :class:`Result`.

    Parameters
    ----------
    platform:
        A :class:`~repro.platform.PlatformSpec` or a path to a platform
        JSON description.  Every host must declare a role; a
        ``ValueError`` names each one that does not.
    workflow:
        A :class:`~repro.workflow.Workflow` or a path to a WfCommons
        JSON trace.
    config:
        Anything :meth:`repro.Config.from_any` accepts: a
        :class:`~repro.config.Config`, a mapping of field names
        (``bb_mode``, ``network_allocator``, ``monitors``, ...) for
        quick literal configs, or a path to a JSON file of one.
    observer:
        An :class:`~repro.obs.Observer` to collect telemetry into;
        ``True`` creates one from the config
        (:meth:`~repro.config.Config.make_observer`: its metric groups,
        ``monitors`` and ``live_dir``).  Implied by the config's
        observability switches (``observe``, ``monitors``,
        ``live_dir``, ...).  A live bus is closed when the run ends.
    """
    cfg = Config.from_any(config)
    if not isinstance(platform, PlatformSpec):
        platform = platform_from_json(platform)
    if not isinstance(workflow, Workflow):
        workflow = workflow_from_wfformat(workflow)
    _host_roles(platform)  # reject a bad platform before opening a bus
    if observer is True or (
        observer in (None, False) and cfg.wants_observer()
    ):
        observer = cfg.replace(observe=True).make_observer()
    elif observer is False:
        observer = None
    trace = _execute(platform, workflow, cfg, observer=observer).trace
    if observer is not None and observer.bus is not None:
        observer.bus.close()
    return Result(trace, cfg, observer, platform, workflow)
