"""Figure 10: real vs. simulated makespan — staged-fraction sweep.

The validation core of the paper (Section IV-B): the simple model
(Table I + Eq. 4, perfect speedup, no metadata effects) is calibrated
from the PFS baseline characterization and its makespan predictions are
compared against the measured ("emulated", in this reproduction)
makespans while sweeping the fraction of input files staged into BBs.

Paper findings regenerated here:

* private mode: mean error ≈ 5.6%, and the *trend inverts* — the
  measured makespan rises with the staged fraction while the simulated
  one falls (the only trend mismatch in the paper);
* striped mode: larger error (paper ≈ 12.8%), simulation underestimates
  (no striping fragmentation in the model), worst at the 75% anomaly;
* on-node: mean error ≈ 6.5%, simulation slightly optimistic.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.emulation.trials import run_trials
from repro.experiments.common import ExperimentResult, swarp_trial, sweep_values
from repro.experiments.configs import ALL_CONFIGS, FRACTIONS, N_TRIALS, N_TRIALS_QUICK
from repro.model import mean_relative_error
from repro.sweep import SweepOptions, SweepSpec, point_id


def compute_point(params: dict[str, Any]) -> list[float]:
    """One sweep point: [measured mean, simulated] for (config, fraction)."""
    config, fraction = params["config"], params["fraction"]
    stats = run_trials(
        lambda seed: swarp_trial(config, seed, fraction=fraction).makespan,
        n_trials=params["n_trials"],
    )
    return [stats.mean, swarp_trial(config, None, fraction=fraction).makespan]


def sweep_spec(quick: bool = False) -> SweepSpec:
    return SweepSpec.cartesian(
        "fig10",
        "repro.experiments.fig10:compute_point",
        axes={
            "config": [c.label for c in ALL_CONFIGS],
            "fraction": [float(f) for f in FRACTIONS],
        },
        constants={"n_trials": N_TRIALS_QUICK if quick else N_TRIALS},
    )


def run(quick: bool = False, sweep: Optional[SweepOptions] = None) -> ExperimentResult:
    n_trials = N_TRIALS_QUICK if quick else N_TRIALS
    values = sweep_values(sweep_spec(quick), sweep)
    result = ExperimentResult(
        experiment_id="fig10",
        title="Real (emulated) vs. simulated makespan vs. % files staged "
        "into BBs (1 pipeline, 32 cores/task)",
        columns=("config", "fraction", "measured_s", "simulated_s", "rel_error"),
    )
    for config in ALL_CONFIGS:
        measured, simulated = [], []
        for fraction in FRACTIONS:
            pid = point_id(
                {
                    "config": config.label,
                    "fraction": float(fraction),
                    "n_trials": n_trials,
                }
            )
            meas, sim = values[pid]
            measured.append(meas)
            simulated.append(sim)
            result.add_row(
                config.label,
                fraction,
                meas,
                sim,
                abs(sim - meas) / meas,
            )
        result.notes.append(
            f"{config.label}: mean relative error "
            f"{mean_relative_error(measured, simulated):.1%} "
            f"(paper: private 5.6%, striped 12.8%, on-node 6.5%)"
        )
    return result
