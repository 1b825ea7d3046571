"""Figure 5: Resample and Combine times across storage tiers and BB modes.

Six panels in the paper: {private, striped, on-node} × {Resample,
Combine}, each comparing intermediate files on the BB vs. on the PFS
while sweeping the fraction of input files staged into the BB.

Paper findings regenerated here:

* private mode: Resample improves as more inputs sit in the BB, and
  writing intermediates to the BB beats the PFS (up to ~1.5×);
* Combine in private mode is nearly constant (single storage layer);
* striped mode trails private consistently (the paper's prose claims up
  to two orders of magnitude; see EXPERIMENTS.md for why we reproduce a
  smaller factor);
* on-node improves for both tasks with more data in the BB and
  outperforms the shared implementation; Summit's PFS is itself fast.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.experiments.common import ExperimentResult, swarp_trial, sweep_values
from repro.experiments.configs import ALL_CONFIGS, FRACTIONS, N_TRIALS, N_TRIALS_QUICK
from repro.sweep import SweepOptions, SweepSpec, point_id


def compute_point(params: dict[str, Any]) -> list[float]:
    """One sweep point: mean resample/combine times over the trial seeds."""
    n_trials = params["n_trials"]
    trials = [
        swarp_trial(
            params["config"],
            seed,
            fraction=params["fraction"],
            intermediates_in_bb=params["intermediates_in_bb"],
        )
        for seed in range(n_trials)
    ]
    return [
        sum(t.resample for t in trials) / n_trials,
        sum(t.combine for t in trials) / n_trials,
    ]


def _fractions(quick: bool):
    return FRACTIONS[::2] if quick else FRACTIONS


def sweep_spec(quick: bool = False) -> SweepSpec:
    return SweepSpec.cartesian(
        "fig5",
        "repro.experiments.fig5:compute_point",
        axes={
            "config": [c.label for c in ALL_CONFIGS],
            "intermediates_in_bb": [True, False],
            "fraction": [float(f) for f in _fractions(quick)],
        },
        constants={"n_trials": N_TRIALS_QUICK if quick else N_TRIALS},
    )


def run(quick: bool = False, sweep: Optional[SweepOptions] = None) -> ExperimentResult:
    n_trials = N_TRIALS_QUICK if quick else N_TRIALS
    values = sweep_values(sweep_spec(quick), sweep)
    result = ExperimentResult(
        experiment_id="fig5",
        title="Resample/Combine execution times (1 pipeline, 32 cores/task) "
        "vs. % inputs in BB, intermediates on BB or PFS",
        columns=(
            "config",
            "intermediates",
            "fraction",
            "resample_s",
            "combine_s",
        ),
    )
    for config in ALL_CONFIGS:
        for intermediates_in_bb in (True, False):
            for fraction in _fractions(quick):
                pid = point_id(
                    {
                        "config": config.label,
                        "intermediates_in_bb": intermediates_in_bb,
                        "fraction": float(fraction),
                        "n_trials": n_trials,
                    }
                )
                resample_s, combine_s = values[pid]
                result.add_row(
                    config.label,
                    "bb" if intermediates_in_bb else "pfs",
                    fraction,
                    resample_s,
                    combine_s,
                )
    result.notes.append(
        "expect: private resample falls with fraction; BB intermediates beat "
        "PFS; combine(private) flat; on-node fastest"
    )
    return result
