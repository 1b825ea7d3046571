"""Figure 7: impact of the number of concurrent pipelines.

Paper findings regenerated here (1 core per pipeline, all files in BB):

* Resample and Combine slow down by up to ~3× on Cori as pipelines
  increase — BB bandwidth contention matters even though the achieved
  bandwidth is far below peak;
* on the on-node implementation the degradation is nearly negligible
  for Stage-In and Resample, more visible for Combine;
* stage-in (sequential, one task) is barely affected by pipeline count.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.experiments.common import ExperimentResult, swarp_trial, sweep_values
from repro.experiments.configs import (
    ALL_CONFIGS,
    N_TRIALS,
    N_TRIALS_QUICK,
    PIPELINE_COUNTS,
)
from repro.sweep import SweepOptions, SweepSpec, point_id


def compute_point(params: dict[str, Any]) -> list[float]:
    """One sweep point: mean task times for (config, pipelines)."""
    n_trials = params["n_trials"]
    trials = [
        swarp_trial(
            params["config"],
            seed,
            outputs_in_bb=True,
            pipelines=params["pipelines"],
            cores=1,
            stage_in=True,
        )
        for seed in range(n_trials)
    ]
    return [
        sum(t.stage_in for t in trials) / n_trials,
        sum(t.resample for t in trials) / n_trials,
        sum(t.combine for t in trials) / n_trials,
    ]


def _pipelines(quick: bool):
    return (1, 8, 32) if quick else PIPELINE_COUNTS


def sweep_spec(quick: bool = False) -> SweepSpec:
    return SweepSpec.cartesian(
        "fig7",
        "repro.experiments.fig7:compute_point",
        axes={
            "config": [c.label for c in ALL_CONFIGS],
            "pipelines": list(_pipelines(quick)),
        },
        constants={"n_trials": N_TRIALS_QUICK if quick else N_TRIALS},
    )


def run(quick: bool = False, sweep: Optional[SweepOptions] = None) -> ExperimentResult:
    n_trials = N_TRIALS_QUICK if quick else N_TRIALS
    values = sweep_values(sweep_spec(quick), sweep)
    result = ExperimentResult(
        experiment_id="fig7",
        title="SWarp task times vs. concurrent pipelines "
        "(1 core per pipeline, all files in BB)",
        columns=("config", "pipelines", "stage_in_s", "resample_s", "combine_s"),
    )
    for config in ALL_CONFIGS:
        for n in _pipelines(quick):
            pid = point_id(
                {"config": config.label, "pipelines": n, "n_trials": n_trials}
            )
            stage_in_s, resample_s, combine_s = values[pid]
            result.add_row(config.label, n, stage_in_s, resample_s, combine_s)
    result.notes.append(
        "expect: Cori tasks slow ~3x by 32 pipelines; Summit resample "
        "nearly flat, combine degrades more"
    )
    return result
