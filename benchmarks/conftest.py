"""Shared helpers for the benchmark harness.

Every table/figure benchmark calls the corresponding experiment module
through :func:`regenerate`, which times a full regeneration (quick
sweep densities — same shapes, fewer trials) exactly once per run and
returns the rows so each benchmark can assert the paper's findings on
the freshly generated data.
"""

import pytest


def regenerate(benchmark, experiment_id: str):
    """Benchmark one full regeneration of an experiment; return its result.

    The SWarp run memo is cleared first, so a figure that shares runs
    with an earlier benchmark (fig8 with fig11) is timed in full.
    """
    from repro.experiments.cli import run_experiment
    from repro.experiments.common import swarp_trial

    return benchmark.pedantic(
        lambda: run_experiment(experiment_id, quick=True),
        setup=swarp_trial.cache_clear,
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )


def rows_for(result, **filters):
    """Rows of an ExperimentResult as dicts, filtered by column values."""
    index = {c: i for i, c in enumerate(result.columns)}
    return [
        {c: row[i] for c, i in index.items()}
        for row in result.rows
        if all(row[index[k]] == v for k, v in filters.items())
    ]
