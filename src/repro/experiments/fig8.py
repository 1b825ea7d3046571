"""Figure 8: run-to-run variability of Resample vs. pipeline count.

Paper findings regenerated here (all files in BB, 1 core per pipeline):

* the on-node implementation is both the fastest and the most stable
  (no network hop → little interference);
* for the shared architecture, private mode outperforms striped and is
  much more stable;
* striped-mode execution time varies by ~15% between runs.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.emulation.trials import run_trials
from repro.experiments.common import ExperimentResult, swarp_trial, sweep_values
from repro.experiments.configs import ALL_CONFIGS, N_TRIALS, N_TRIALS_QUICK
from repro.sweep import SweepOptions, SweepSpec, point_id

PIPELINES = (1, 4, 16, 32)


def compute_point(params: dict[str, Any]) -> list[float]:
    """One sweep point: resample variability stats for (config, pipelines)."""
    stats = run_trials(
        lambda seed: swarp_trial(
            params["config"],
            seed,
            outputs_in_bb=True,
            pipelines=params["pipelines"],
            cores=1,
        ).resample,
        n_trials=params["n_trials"],
    )
    return [stats.mean, stats.std, stats.cv, stats.spread]


def _pipelines(quick: bool):
    return (1, 32) if quick else PIPELINES


def sweep_spec(quick: bool = False) -> SweepSpec:
    return SweepSpec.cartesian(
        "fig8",
        "repro.experiments.fig8:compute_point",
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
        experiment_id="fig8",
        title="Resample variability across repeated runs vs. pipelines "
        "(all files in BB)",
        columns=("config", "pipelines", "mean_s", "std_s", "cv", "spread"),
    )
    for config in ALL_CONFIGS:
        for n in _pipelines(quick):
            pid = point_id(
                {"config": config.label, "pipelines": n, "n_trials": n_trials}
            )
            mean, std, cv, spread = values[pid]
            result.add_row(config.label, n, mean, std, cv, spread)
    result.notes.append(
        "expect: on-node lowest mean and spread; striped spread ~15%"
    )
    return result
