"""Acceptance tests: serial vs. parallel bit-identity on real figures.

These run the actual fig13 point function (1000Genomes simulation) and
fig8's (emulated SWarp) on reduced specs — small enough for CI, real
enough to exercise pickling, per-process calibration and run caches,
and float round-tripping.
"""

import json

import pytest

import repro.experiments.fig13 as fig13
from repro.sweep import SweepCache, SweepSpec, run_sweep


def _small_fig13_spec():
    """A 4-point fig13 spec (2 chromosomes, 2 fractions, both systems)."""
    return SweepSpec.cartesian(
        "fig13-small",
        "repro.experiments.fig13:compute_point",
        axes={"system": ["cori", "summit"], "fraction": [0.0, 1.0]},
        constants={"n_chromosomes": 2},
        pass_obs_dir=True,
    )


def test_serial_and_parallel_runs_are_bit_identical():
    spec = _small_fig13_spec()
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=4)
    assert serial.count("completed") == parallel.count("completed") == 4
    # Byte-identical, not approximately equal: canonical JSON of the
    # full value map must match exactly.
    assert json.dumps(serial.values(), sort_keys=True) == json.dumps(
        parallel.values(), sort_keys=True
    )
    # Sanity: staging everything into the BB helps on both systems.
    values = serial.values()
    for system in ("cori", "summit"):
        full = values[f"fraction=1.0,n_chromosomes=2,system={system}"]
        none = values[f"fraction=0.0,n_chromosomes=2,system={system}"]
        assert full < none


def test_emulated_figure_memo_keeps_serial_and_parallel_identical():
    """A reduced fig8 spec whose serial side reads runs memoized by a
    fig11 point equals a 4-worker run where every process starts cold."""
    from repro.experiments import fig11

    fig11.compute_point({"config": "striped", "pipelines": 2, "n_trials": 2})
    spec = SweepSpec.cartesian(
        "fig8-small",
        "repro.experiments.fig8:compute_point",
        axes={"config": ["private", "striped", "on-node"], "pipelines": [1, 2]},
        constants={"n_trials": 2},
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=4)
    assert serial.count("completed") == parallel.count("completed") == 6
    assert json.dumps(serial.values(), sort_keys=True) == json.dumps(
        parallel.values(), sort_keys=True
    )


def test_cached_rerun_invokes_no_simulation(tmp_path, monkeypatch):
    spec = _small_fig13_spec()
    cache_dir = tmp_path / "cache"
    first = run_sweep(spec, cache=SweepCache(cache_dir))
    assert first.count("completed") == 4

    def no_sim(*args, **kwargs):
        raise AssertionError("simulator invoked on a fully cached re-run")

    # fig13 imported run_genomes at module scope; patching that name
    # guarantees any cache miss would crash loudly.
    monkeypatch.setattr(fig13, "run_genomes", no_sim)
    second = run_sweep(spec, cache=SweepCache(cache_dir))
    assert second.count("cached") == 4
    assert second.count("completed") == 0
    assert json.dumps(second.values(), sort_keys=True) == json.dumps(
        first.values(), sort_keys=True
    )


def test_figure_module_output_identical_through_sweep_options(tmp_path):
    """fig13.run() through cache+sweep equals the plain serial run."""
    from repro.sweep import SweepOptions

    plain = fig13.run(quick=True)
    cached = fig13.run(
        quick=True, sweep=SweepOptions(cache_dir=tmp_path / "cache")
    )
    rerun = fig13.run(
        quick=True, sweep=SweepOptions(cache_dir=tmp_path / "cache")
    )
    assert plain.rows == cached.rows == rerun.rows


def test_points_complete_at_same_values_with_obs(tmp_path):
    """Telemetry export must not perturb simulated results."""
    spec = _small_fig13_spec()
    bare = run_sweep(spec, workers=1)
    with_obs = run_sweep(spec, workers=1, obs_dir=tmp_path / "obs")
    assert bare.values() == with_obs.values()
    sample = tmp_path / "obs" / "fraction=0.0,n_chromosomes=2,system=cori"
    assert (sample / "trace.json").exists()
    assert (sample / "manifest.json").exists()
    assert (sample / "point.manifest.json").exists()


def test_policy_sweep_serial_parallel_bit_identical():
    """The queue-policy comparison sweep (every registered policy on
    the contended scenario) is bit-identical across worker counts —
    the acceptance gate for policy determinism under ``--workers 4``."""
    from repro.experiments.policies import sweep_spec

    spec = sweep_spec(quick=True)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=4)
    assert serial.count("completed") == parallel.count("completed") == 4
    assert json.dumps(serial.values(), sort_keys=True) == json.dumps(
        parallel.values(), sort_keys=True
    )
    values = serial.values()
    fifo = values["n_jobs=8,policy=fifo"]
    for policy in ("easy-backfill", "conservative-backfill", "plan"):
        point = values[f"n_jobs=8,policy={policy}"]
        # Same total work, strictly less BB-capacity wait than FIFO.
        assert point["busy_s"] == fifo["busy_s"]
        assert point["wait:bb_capacity"] < fifo["wait:bb_capacity"]
