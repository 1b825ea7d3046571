"""Emulator calibration constants, annotated with their provenance.

These constants define the *emulated ground truth* against which the
paper's simple model is validated.  None of them feeds the simple
simulator — that one only sees Table I plus Eq. (4)-calibrated task
times, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.platform.presets import TABLE_I
from repro.platform.units import MB


@dataclass(frozen=True)
class TierEffects:
    """Emulated effects of one storage tier."""

    #: Per-operation latency, seconds (file open/close round-trips);
    #: concurrent operations pay it in parallel.
    read_latency: float
    write_latency: float
    #: POSIX single-stream bandwidth cap, bytes/s.  The paper: "the
    #: effective bandwidth achieved by this workflow implementation is
    #: well below the peak bandwidth ... likely due to standard POSIX
    #: I/O operations".
    stream_cap: float
    #: Lognormal sigma of per-trial interference (Figure 8's spread).
    interference_sigma: float
    #: Serialized metadata service time per operation, seconds.  Unlike
    #: the latencies above, these QUEUE: a 1:N pattern over many small
    #: files pays them back to back.  This is the dominant cost of
    #: striped DataWarp allocations for SWarp's access pattern
    #: (Figure 5: private beats striped by 1–2 orders of magnitude).
    metadata_service_time: float = 0.0


@dataclass(frozen=True)
class EmulationEffects:
    """All emulated effects for one platform configuration."""

    pfs: TierEffects
    bb_private: TierEffects
    bb_striped: TierEffects
    bb_onnode: TierEffects
    #: STRIPED-mode extra latency per stripe chunk (fragmentation).
    per_stripe_latency: float
    #: Concurrency penalty on each compute node's BB uplink: fraction of
    #: aggregate capacity lost per extra concurrent flow (floored at 10%
    #: of nominal inside the link model).  Encodes the contention Fig. 7
    #: exposes: concurrent pipelines saturate the node's effective BB
    #: bandwidth far below peak.
    bb_uplink_concurrency_penalty: float
    #: Compute slowdown per concurrently busy core beyond the task's own
    #: (memory-bandwidth interference): time *= 1 + c · other_busy_cores.
    compute_interference: float
    #: Degradation per core beyond 8 for Resample-like tasks (Figure 6:
    #: "performance slightly degrades as the number of cores increases").
    beyond8_degradation: float
    #: Emulated PFS disk bandwidth, bytes/s, when the real machine's
    #: effective PFS differs from the conservative Table I calibration
    #: (None = keep Table I).  Summit's GPFS delivers several hundred
    #: MB/s to a single node in practice, which is what makes its
    #: stage-in up to ~5× faster than Cori's (Figure 4) even though both
    #: simulators are calibrated at 100 MB/s.
    pfs_disk_bandwidth: "float | None" = None
    #: The reproducible striped anomaly (Figure 4): stage-in latency
    #: multiplier applied when the staged input fraction falls in
    #: [anomaly_low, anomaly_high) and the BB mode is striped.  The paper
    #: could not explain this behaviour ("may be due to a particular
    #: threshold defined in the system configuration"); we reproduce its
    #: signature, not its cause.
    striped_anomaly_low: float = 0.70
    striped_anomaly_high: float = 0.85
    striped_anomaly_factor: float = 2.0


#: Cori (shared BB).  Tier constants encode, in order: private-mode BB
#: beating PFS writes by ~1.5× while striped trails private by 1–2
#: orders of magnitude on many-small-file patterns (Figure 5); stage-in
#: to BB slower than Summit's by up to ~5× (Figure 4); striped spread
#: ~15% vs a stable private mode (Figure 8).
CORI_EFFECTS = EmulationEffects(
    pfs=TierEffects(
        read_latency=0.02,
        write_latency=0.03,
        stream_cap=120 * MB,
        interference_sigma=0.06,
        # Lustre MDS serialization: many-small-file patterns queue on
        # metadata, which is precisely the advantage a BB namespace
        # buys back (and why "workflows ... are often limited by
        # metadata performance" per Daley et al., quoted in Sec. II).
        metadata_service_time=0.15,
    ),
    bb_private=TierEffects(
        read_latency=0.03,
        # Stage-in registrations into a DataWarp namespace are slow
        # per-file (sequential stage-in makes this visible in Figure 4);
        # task writes pay it once in parallel, so tasks barely notice.
        write_latency=0.2,
        stream_cap=250 * MB,
        interference_sigma=0.08,
    ),
    bb_striped=TierEffects(
        read_latency=0.15,
        write_latency=0.2,
        stream_cap=180 * MB,
        interference_sigma=0.15,
        # NOTE: the paper's Figure 5 narrative claims striped trails
        # private "by up to two orders of magnitude", yet its Figure
        # 10/11 validation reports only ~12% simulation error for
        # striped — which is impossible if measured striped makespans
        # were 100× the simulated ones.  We resolve the tension in
        # favour of the quantitative error numbers: striped is
        # consistently the worst tier (metadata serialization +
        # fragmentation + 15% interference) by a factor of a few, and
        # EXPERIMENTS.md documents the deviation from the prose claim.
        metadata_service_time=0.12,
    ),
    bb_onnode=TierEffects(  # unused on Cori; placeholder equal to private
        read_latency=0.05,
        write_latency=0.08,
        stream_cap=250 * MB,
        interference_sigma=0.04,
    ),
    per_stripe_latency=0.35,
    bb_uplink_concurrency_penalty=0.0001,
    compute_interference=0.008,
    beyond8_degradation=0.015,
    # Effective aggregate Lustre bandwidth seen by one node in practice;
    # Table I's 100 MB/s is the simulator's (deliberately conservative)
    # calibration — the paper itself notes the documents it drew
    # bandwidths from were inconsistent.
    pfs_disk_bandwidth=300 * MB,
)

#: Summit (on-node BB).  Near-zero latency (no network hop), high stream
#: cap, tiny interference — "the absence of network latency for the
#: Summit BB architecture leads to more stable measurements".
SUMMIT_EFFECTS = EmulationEffects(
    pfs=TierEffects(
        read_latency=0.005,
        write_latency=0.0075,
        stream_cap=350 * MB,
        interference_sigma=0.03,
        metadata_service_time=0.02,  # GPFS handles small files far better
    ),
    bb_private=TierEffects(  # unused on Summit
        read_latency=0.002,
        write_latency=0.003,
        stream_cap=1200 * MB,
        interference_sigma=0.01,
    ),
    bb_striped=TierEffects(  # unused on Summit
        read_latency=0.002,
        write_latency=0.003,
        stream_cap=1200 * MB,
        interference_sigma=0.01,
    ),
    bb_onnode=TierEffects(
        read_latency=0.002,
        write_latency=0.003,
        stream_cap=1200 * MB,
        interference_sigma=0.01,
    ),
    per_stripe_latency=0.0,
    bb_uplink_concurrency_penalty=0.0,
    compute_interference=0.002,
    beyond8_degradation=0.004,
    pfs_disk_bandwidth=450 * MB,
)


def effects_for(system: str) -> EmulationEffects:
    """Effects preset for a system name (``"cori"`` or ``"summit"``)."""
    if system.startswith("cori"):
        return CORI_EFFECTS
    if system.startswith("summit"):
        return SUMMIT_EFFECTS
    raise ValueError(f"unknown system {system!r}")


@dataclass(frozen=True)
class EmulatedTaskTruth:
    """Ground-truth execution parameters of one task category.

    ``tc1`` is the true sequential compute time on a Cori core; ``alpha``
    the true Amdahl fraction.  These are what the emulated machine
    actually does; the simple model never sees them — it recovers an
    (approximate) tc1 from emulated observations via Eq. (4).
    """

    tc1: float
    alpha: float
    #: Apply the beyond-8-cores degradation term (Resample-like tasks).
    degrades_beyond_8: bool = False

    def flops(self) -> float:
        """True sequential work in flop (Cori-core calibrated)."""
        return self.tc1 * TABLE_I["cori"]["core_speed"]


#: SWarp ground truth, chosen to reproduce Figure 6's scaling story
#: (Resample gains up to ~8 cores then flattens/degrades; Combine barely
#: scales) and Figure 7's contention story (I/O is a large enough share
#: of a 1-core task that concurrent pipelines slow each other down
#: through the shared BB path).  The absolute λ_io our emulated PFS
#: produces differs from the 0.203/0.260 the paper quotes from Daley et
#: al. [24] — their characterization machine is not our Table-I-rate
#: emulation — but the calibration *procedure* is identical: λ_io is
#: measured on the PFS baseline and fed to Eq. (4)
#: (see repro.experiments.common.calibrate_swarp).
SWARP_TRUTH = {
    "resample": EmulatedTaskTruth(tc1=100.0, alpha=0.20, degrades_beyond_8=True),
    "combine": EmulatedTaskTruth(tc1=23.0, alpha=0.90),
    "stage_in": EmulatedTaskTruth(tc1=0.0, alpha=0.0),
}
