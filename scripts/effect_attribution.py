#!/usr/bin/env python3
"""How much of the striped validation error each emulation effect explains.

    PYTHONPATH=src python3 scripts/effect_attribution.py [TRIALS]

Figures 10 and 11 compare the simple model with the emulator, which
stands in for the measured Cori.  This script redoes both striped
comparisons with the emulator's effects switched one at a time: from
null effects (every effect off, so only the true Amdahl alphas differ
from the simple model) with one effect on, and from the full Cori
effects with one effect off.  Each variant is a different "machine", so
the simple model is recalibrated on it exactly as
``repro.experiments.common.calibrate_swarp`` does on Cori (Eq. 4 from
the noise-free PFS baseline).  The full-effects rows reproduce
``results/fig10.json`` and ``results/fig11.json``.  Prints a Markdown
table of mean relative errors; TRIALS (default 15, the figures') seeded
trials are averaged per point.  Takes about five minutes serially.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import lru_cache
from typing import Any

from repro.emulation import CORI_EFFECTS, EmulationEffects
from repro.emulation.calibration import TierEffects
from repro.experiments.configs import FRACTIONS, PIPELINE_COUNTS
from repro.model import mean_relative_error
from repro.model.equations import sequential_compute_time
from repro.platform.presets import TABLE_I
from repro.scenarios import run_swarp
from repro.storage import BBMode

_NULL_TIER = TierEffects(
    read_latency=0.0,
    write_latency=0.0,
    stream_cap=float("inf"),
    interference_sigma=0.0,
    metadata_service_time=0.0,
)
NULL_EFFECTS = EmulationEffects(
    pfs=_NULL_TIER,
    bb_private=_NULL_TIER,
    bb_striped=_NULL_TIER,
    bb_onnode=_NULL_TIER,
    per_stripe_latency=0.0,
    bb_uplink_concurrency_penalty=0.0,
    compute_interference=0.0,
    beyond8_degradation=0.0,
    pfs_disk_bandwidth=None,
    striped_anomaly_low=2.0,
    striped_anomaly_high=3.0,
)

_TIERS = ("pfs", "bb_private", "bb_striped", "bb_onnode")

#: Effect name -> the EmulationEffects fields it covers ("tier.field"
#: for a tier's field).  A striped run uses only the PFS and striped
#: tiers; sigma is every tier's interference.
EFFECTS: dict[str, tuple[str, ...]] = {
    "PFS latencies": ("pfs.read_latency", "pfs.write_latency"),
    "PFS metadata queue": ("pfs.metadata_service_time",),
    "PFS stream cap": ("pfs.stream_cap",),
    "PFS disk bandwidth": ("pfs_disk_bandwidth",),
    "striped latencies": ("bb_striped.read_latency", "bb_striped.write_latency"),
    "striped metadata queue": ("bb_striped.metadata_service_time",),
    "striped stream cap": ("bb_striped.stream_cap",),
    "per-stripe latency": ("per_stripe_latency",),
    "uplink concurrency penalty": ("bb_uplink_concurrency_penalty",),
    "compute interference": ("compute_interference",),
    "beyond-8 degradation": ("beyond8_degradation",),
    "interference (sigma)": tuple(f"{t}.interference_sigma" for t in _TIERS),
    "striped anomaly": ("striped_anomaly_low", "striped_anomaly_high"),
}


def _copy(
    target: EmulationEffects, source: EmulationEffects, paths: tuple[str, ...]
) -> EmulationEffects:
    """``target`` with the fields at ``paths`` taken from ``source``."""
    for path in paths:
        tier, _, field = path.rpartition(".")
        if tier:
            value = replace(
                getattr(target, tier), **{field: getattr(getattr(source, tier), field)}
            )
            target = replace(target, **{tier: value})
        else:
            target = replace(target, **{field: getattr(source, field)})
    return target


@lru_cache(maxsize=None)
def _calibrated_flops(effects: EmulationEffects, cores: int) -> dict[str, float]:
    """Eq. (4) task work recovered on the ``effects`` machine."""
    reference = run_swarp(
        system="cori",
        input_fraction=0.0,
        intermediates_in_bb=False,
        cores_per_task=cores,
        include_stage_in=False,
        emulated=True,
        effects=effects,
    )
    speed = TABLE_I["cori"]["core_speed"]
    flops = {}
    for group in ("resample", "combine"):
        record = reference.trace.task_record(f"{group}_0")
        flops[f"{group}_flops"] = (
            sequential_compute_time(record.duration, cores, record.io_fraction)
            * speed
        )
    return flops


def _error(
    effects: EmulationEffects, points: list[dict[str, Any]], trials: int
) -> float:
    """Mean relative error of the recalibrated simple model over ``points``."""
    measured, simulated = [], []
    for point in points:
        kwargs = {"system": "cori", "bb_mode": BBMode.STRIPED,
                  "include_stage_in": False, **point}
        runs = [
            run_swarp(emulated=True, seed=seed, effects=effects, **kwargs).makespan
            for seed in range(trials)
        ]
        measured.append(sum(runs) / len(runs))
        flops = _calibrated_flops(effects, point["cores_per_task"])
        simulated.append(run_swarp(**kwargs, **flops).makespan)
    return mean_relative_error(measured, simulated)


#: The two striped comparisons (see repro.experiments.fig10 and fig11).
FIGURES = {
    "Fig. 10 striped": [
        {"input_fraction": f, "cores_per_task": 32} for f in FRACTIONS
    ],
    "Fig. 11 striped": [
        {"n_pipelines": n, "cores_per_task": 1, "outputs_in_bb": True}
        for n in PIPELINE_COUNTS
    ],
}


def main(argv: list[str]) -> int:
    trials = int(argv[0]) if argv else 15
    names = list(FIGURES)
    print("| effect | " + " | ".join(
        f"{n}: alone | {n}: all but" for n in names) + " |")
    print("|---" * (1 + 2 * len(names)) + "|")
    null = [_error(NULL_EFFECTS, FIGURES[n], trials) for n in names]
    full = [_error(CORI_EFFECTS, FIGURES[n], trials) for n in names]
    print("| none (null effects) | " + " | ".join(
        f"{e:.1%} | —" for e in null) + " |")
    for effect, paths in EFFECTS.items():
        alone = _copy(NULL_EFFECTS, CORI_EFFECTS, paths)
        all_but = _copy(CORI_EFFECTS, NULL_EFFECTS, paths)
        cells = []
        for name in names:
            cells.append(f"{_error(alone, FIGURES[name], trials):.1%}")
            cells.append(f"{_error(all_but, FIGURES[name], trials):.1%}")
        print(f"| {effect} | " + " | ".join(cells) + " |")
    print("| all (Cori) | " + " | ".join(f"{e:.1%} | —" for e in full) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
