"""Figure 6: impact of the number of cores per task.

Paper findings regenerated here (1 pipeline, all input files in the BB):

* Resample benefits from parallelism up to ~8 cores on the shared
  implementation, then slightly degrades;
* on the on-node implementation the plateau arrives around 16 cores;
* Combine does not benefit from increased parallelism (reads all inputs
  at once and merges them under locks);
* the relative ordering of the configurations is unchanged by the core
  count.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.experiments.common import ExperimentResult, swarp_trial, sweep_values
from repro.experiments.configs import ALL_CONFIGS, CORE_COUNTS, N_TRIALS, N_TRIALS_QUICK
from repro.sweep import SweepOptions, SweepSpec, point_id


def compute_point(params: dict[str, Any]) -> list[float]:
    """One sweep point: mean resample/combine times for (config, cores)."""
    n_trials = params["n_trials"]
    trials = [
        swarp_trial(params["config"], seed, cores=params["cores"])
        for seed in range(n_trials)
    ]
    return [
        sum(t.resample for t in trials) / n_trials,
        sum(t.combine for t in trials) / n_trials,
    ]


def _core_counts(quick: bool):
    return (1, 8, 32) if quick else CORE_COUNTS


def sweep_spec(quick: bool = False) -> SweepSpec:
    return SweepSpec.cartesian(
        "fig6",
        "repro.experiments.fig6:compute_point",
        axes={
            "config": [c.label for c in ALL_CONFIGS],
            "cores": list(_core_counts(quick)),
        },
        constants={"n_trials": N_TRIALS_QUICK if quick else N_TRIALS},
    )


def run(quick: bool = False, sweep: Optional[SweepOptions] = None) -> ExperimentResult:
    n_trials = N_TRIALS_QUICK if quick else N_TRIALS
    values = sweep_values(sweep_spec(quick), sweep)
    result = ExperimentResult(
        experiment_id="fig6",
        title="SWarp task times vs. cores per task "
        "(1 pipeline, all inputs staged into BB)",
        columns=("config", "cores", "resample_s", "combine_s"),
    )
    for config in ALL_CONFIGS:
        for cores in _core_counts(quick):
            pid = point_id(
                {"config": config.label, "cores": cores, "n_trials": n_trials}
            )
            resample_s, combine_s = values[pid]
            result.add_row(config.label, cores, resample_s, combine_s)
    result.notes.append(
        "expect: resample plateau ~8 cores (shared) / ~16 (on-node); "
        "combine flat"
    )
    return result
