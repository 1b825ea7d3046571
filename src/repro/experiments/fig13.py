"""Figure 13: 1000Genomes makespan vs. fraction of input staged into BBs.

The case study of Section IV-C: the calibrated simulator (no emulation
effects — this figure is simulation-only in the paper, too) predicts
the makespan of the 903-task, ~67 GB 1000Genomes workflow on the Cori
and Summit models while sweeping the staged input fraction.

Paper findings regenerated here:

* performance improves (makespan falls) as more input sits in the BB;
* Summit outperforms Cori (bigger BB bandwidth);
* Cori plateaus once ~80% of the input is staged (its single BB node's
  bandwidth saturates); Summit's plateau arrives only near 100%.

This module is also the sweep engine's telemetry showcase: when the
sweep is given an ``--obs-dir``, every point attaches an
:class:`repro.obs.Observer` to its simulation and exports the full
telemetry bundle (manifest + Perfetto trace + metric CSVs) into its
per-point directory.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.config import Config
from repro.experiments.common import ExperimentResult, sweep_values
from repro.network import DEFAULT_ALLOCATOR
from repro.scenarios import run_genomes
from repro.sweep import SweepOptions, SweepSpec, point_id

FRACTIONS = tuple(i / 10 for i in range(11))


def makespan(system: str, fraction: float, n_chromosomes: int, observer=None) -> float:
    return run_genomes(
        system=system,
        input_fraction=fraction,
        n_chromosomes=n_chromosomes,
        n_compute=8,
        emulated=False,
        observer=observer,
    ).makespan


def compute_point(params: dict[str, Any], obs_dir=None) -> float:
    """One sweep point: simulated makespan for (system, fraction).

    With an ``obs_dir``, the point also exports its telemetry bundle —
    including the critical-path ``profile.json``/``profile.folded`` —
    into its per-point directory, so ``repro-profile <a>/ <b>/`` can
    diff any two sweep points.  The return value stays the bare
    makespan float: profiling is export-only and cannot perturb the
    sweep cache key or the cached value.
    """
    observer = None
    if obs_dir is not None:
        from repro.obs import Observer

        observer = Observer()
    scenario = run_genomes(
        system=params["system"],
        input_fraction=params["fraction"],
        n_chromosomes=params["n_chromosomes"],
        n_compute=8,
        emulated=False,
        observer=observer,
        network_allocator=params.get("network_allocator"),
    )
    if observer is not None:
        from repro.obs import export_run
        from repro.profile import build_profile

        profile = build_profile(scenario.trace, observer=observer)
        export_run(observer, obs_dir, profile=profile)
    return scenario.makespan


def _fractions(quick: bool):
    return FRACTIONS[::2] if quick else FRACTIONS


def _constants(quick: bool, config: "Config | None") -> dict[str, Any]:
    """The non-axis parameters every point carries.

    ``network_allocator`` joins the parameter set only when the config
    picks a non-default discipline, so the cache keys (and per-point
    telemetry directories) of historical default-allocator sweeps are
    untouched.
    """
    constants: dict[str, Any] = {"n_chromosomes": 6 if quick else 22}
    cfg = Config.from_any(config)
    if cfg.network_allocator != DEFAULT_ALLOCATOR:
        constants["network_allocator"] = cfg.network_allocator
    return constants


def sweep_spec(quick: bool = False, config: "Config | None" = None) -> SweepSpec:
    return SweepSpec.cartesian(
        "fig13",
        "repro.experiments.fig13:compute_point",
        axes={
            "system": ["cori", "summit"],
            "fraction": list(_fractions(quick)),
        },
        constants=_constants(quick, config),
        pass_obs_dir=True,
    )


def run(
    quick: bool = False,
    sweep: Optional[SweepOptions] = None,
    config: "Config | None" = None,
) -> ExperimentResult:
    n_chromosomes = 6 if quick else 22
    constants = _constants(quick, config)
    values = sweep_values(sweep_spec(quick, config), sweep)
    result = ExperimentResult(
        experiment_id="fig13",
        title="1000Genomes simulated makespan vs. % input files in BB "
        f"({n_chromosomes} chromosomes)",
        columns=("fraction", "cori_s", "summit_s"),
    )
    for fraction in _fractions(quick):
        row = []
        for system in ("cori", "summit"):
            pid = point_id({**constants, "system": system, "fraction": fraction})
            row.append(values[pid])
        result.add_row(fraction, row[0], row[1])
    result.notes.append(
        "expect: both fall with fraction; summit < cori; cori plateau ~80%"
    )
    return result
