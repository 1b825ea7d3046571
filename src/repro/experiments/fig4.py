"""Figure 4: stage-in time vs. the fraction of input files staged into BBs.

Paper findings this harness regenerates:

* stage-in time grows linearly with the staged data volume;
* the on-node implementation (Summit) outperforms the shared one (Cori)
  by up to a factor of ~5;
* the striped mode shows an unexpected, reproducible degradation around
  75% staged input;
* both shared modes show visible run-to-run variation (curve envelopes).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.emulation.trials import run_trials
from repro.experiments.common import ExperimentResult, swarp_trial, sweep_values
from repro.experiments.configs import ALL_CONFIGS, FRACTIONS, N_TRIALS, N_TRIALS_QUICK
from repro.sweep import SweepOptions, SweepSpec, point_id


def compute_point(params: dict[str, Any]) -> list[float]:
    """One sweep point: stage-in trial statistics for (config, fraction)."""
    stats = run_trials(
        lambda seed: swarp_trial(
            params["config"], seed, fraction=params["fraction"], stage_in=True
        ).stage_in,
        n_trials=params["n_trials"],
    )
    return [stats.mean, stats.std, stats.min, stats.max]


def sweep_spec(quick: bool = False) -> SweepSpec:
    return SweepSpec.cartesian(
        "fig4",
        "repro.experiments.fig4:compute_point",
        axes={
            "fraction": [float(f) for f in FRACTIONS],
            "config": [c.label for c in ALL_CONFIGS],
        },
        constants={"n_trials": N_TRIALS_QUICK if quick else N_TRIALS},
    )


def run(quick: bool = False, sweep: Optional[SweepOptions] = None) -> ExperimentResult:
    n_trials = N_TRIALS_QUICK if quick else N_TRIALS
    values = sweep_values(sweep_spec(quick), sweep)
    result = ExperimentResult(
        experiment_id="fig4",
        title="Stage-In execution time vs. % of input files staged into BBs "
        "(1 pipeline, 32 cores/task)",
        columns=("fraction", "config", "mean_s", "std_s", "min_s", "max_s"),
    )
    for fraction in FRACTIONS:
        for config in ALL_CONFIGS:
            pid = point_id(
                {
                    "fraction": float(fraction),
                    "config": config.label,
                    "n_trials": n_trials,
                }
            )
            mean, std, min_s, max_s = values[pid]
            result.add_row(fraction, config.label, mean, std, min_s, max_s)
    result.notes.append(
        "expect: linear growth; on-node ≪ private ≪ striped; striped bump at 75%"
    )
    return result
