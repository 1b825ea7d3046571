"""The emulated machine as one run's settings: :func:`emulate`.

Every effect the simple model omits reaches a run through here; the run
path applies the settings without knowing why they differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Mapping, Optional

from repro.config import Config
from repro.emulation.calibration import (
    EmulatedTaskTruth,
    EmulationEffects,
    TierEffects,
)
from repro.emulation.compute import EmulatedComputeService
from repro.platform import Platform, PlatformSpec
from repro.simulator import Emulation, _host_roles
from repro.storage import BBMode
from repro.storage.base import ServiceLatencies


@dataclass
class _Emulated(Emulation):
    """Each service gets its tier's effects, scaled by this trial's
    interference, drawn as the service is built."""

    effects: EmulationEffects
    noise: Optional[Callable[[float], float]]
    truth: Optional[Mapping[str, EmulatedTaskTruth]]
    input_fraction: float

    def _tier(self, tier: TierEffects) -> dict[str, Any]:
        factor = 1.0 if self.noise is None else self.noise(tier.interference_sigma)
        return {
            "latencies": ServiceLatencies(
                read=tier.read_latency * factor,
                write=tier.write_latency * factor,
            ),
            "max_stream_rate": tier.stream_cap / factor,
            "metadata_service_time": tier.metadata_service_time * factor,
        }

    def pfs(self) -> dict[str, Any]:
        return self._tier(self.effects.pfs)

    def shared_bb(self, mode: BBMode) -> dict[str, Any]:
        effects = self.effects
        settings = self._tier(getattr(effects, f"bb_{mode.value}"))
        settings["per_stripe_latency"] = effects.per_stripe_latency
        if (
            mode == BBMode.STRIPED
            and effects.striped_anomaly_low
            <= self.input_fraction
            < effects.striped_anomaly_high
        ):
            # The reproducible Figure 4 anomaly: staging into a striped
            # allocation degrades in this fraction band.
            latencies = settings["latencies"]
            latencies.stage_in = (
                latencies.write
                + settings["metadata_service_time"]
                + effects.per_stripe_latency
            ) * (effects.striped_anomaly_factor - 1.0)
        return settings

    def local_bb(self) -> dict[str, Any]:
        settings = self._tier(self.effects.bb_onnode)
        del settings["metadata_service_time"]  # on-node BBs queue no metadata
        return settings

    def compute(
        self, platform: Platform, hosts: list[str], config: Config
    ) -> EmulatedComputeService:
        return EmulatedComputeService(
            platform, hosts, effects=self.effects, truth=self.truth
        )


def emulate(
    spec: PlatformSpec,
    effects: EmulationEffects,
    seed: Optional[int],
    config: Config,
    truth: Optional[Mapping[str, EmulatedTaskTruth]] = None,
) -> tuple[PlatformSpec, Emulation]:
    """The emulated platform and service settings of one trial.

    ``seed`` seeds the trial's interference (``None`` draws none, and
    only a seeded trial imports numpy).  The first draw, with the sigma
    of the burst-buffer tier the run uses, scales the BB uplinks: those
    are the links that bind under contention (per-service stream caps
    rarely do when many flows share an uplink).  The uplinks also get
    the BB concurrency penalty, and the PFS disks the effective PFS
    bandwidth.  Each service then draws its own interference as
    :func:`~repro.simulator._execute` builds it: the PFS, then each
    burst buffer in order of first use.  ``truth`` gives the emulated
    compute service its true task parameters.
    """
    noise = None
    if seed is not None:
        import numpy as np

        from repro.emulation.trials import interference_factor

        noise = partial(interference_factor, np.random.default_rng(seed))

    roles = _host_roles(spec)
    if roles.local_bb:
        tier, uplink = effects.bb_onnode, "-pcie"
    else:
        tier, uplink = getattr(effects, f"bb_{config.bb_mode.value}"), "-bbnet"
    penalty = effects.bb_uplink_concurrency_penalty
    scale = 1.0 / noise(tier.interference_sigma) if noise is not None else 1.0
    if penalty > 0 or scale != 1.0:
        links = tuple(
            replace(
                l,
                concurrency_penalty=max(l.concurrency_penalty, penalty),
                bandwidth=l.bandwidth * scale,
            )
            if l.name.endswith(uplink)
            else l
            for l in spec.links
        )
        spec = replace(spec, links=links)
    bandwidth = effects.pfs_disk_bandwidth
    if bandwidth is not None:
        pfs_disks = {"read_bandwidth": bandwidth, "write_bandwidth": bandwidth}
        hosts = tuple(
            replace(h, disks=tuple(replace(d, **pfs_disks) for d in h.disks))
            if h.name == roles.pfs
            else h
            for h in spec.hosts
        )
        spec = replace(spec, hosts=hosts)
    return spec, _Emulated(effects, noise, truth, config.input_fraction)
