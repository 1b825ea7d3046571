"""End-to-end: a full instrumented scenario produces valid telemetry.

These are the acceptance checks of the observability layer: running a
real scenario with an observer attached yields a loadable Chrome trace,
occupancy series that respect BB capacity, and a manifest that
reconstructs the exact simulator configuration.
"""

import gc
import json
import weakref

import pytest

from repro import simulate
from repro.config import Config
from repro.experiments import fig13
from repro.obs import (
    LiveBus,
    Observer,
    chrome_trace,
    config_from_manifest,
    export_run,
    validate_chrome_trace,
    validate_obs_dir,
)
from repro.platform.presets import cori_spec
from repro.scenarios import run_genomes, run_swarp
from repro.api import simulate
from repro.storage import BBMode
from repro.workflow.swarp import make_swarp
from repro.workflow.synthetic import make_fork_join


@pytest.fixture(scope="module")
def observed_run():
    obs = Observer()
    result = run_swarp(n_pipelines=2, observer=obs)
    return obs, result


def test_scenario_collects_all_groups(observed_run):
    obs, _ = observed_run
    names = obs.registry.names()
    prefixes = {name.split(".", 1)[0] for name in names}
    assert prefixes == {"storage", "network", "compute", "engine", "des"}
    assert obs.spans


def test_bb_occupancy_stays_under_capacity(observed_run):
    obs, _ = observed_run
    occupancies = [
        name
        for name in obs.registry.names()
        if name.startswith("storage.") and name.endswith(".occupancy_bytes")
    ]
    assert occupancies
    for name in occupancies:
        service = name[len("storage.") : -len(".occupancy_bytes")]
        capacity = obs.registry.gauge(f"storage.{service}.capacity_bytes").value
        series = obs.registry.timeseries(name)
        assert series.peak is not None
        assert series.peak <= capacity
        assert all(v >= 0 for v in series.values)


def test_tasks_completed_matches_trace(observed_run):
    obs, result = observed_run
    completed = obs.registry.counter("engine.tasks_completed").value
    assert completed == len(result.trace.records)
    # One enclosing span per task (plus phase children).
    task_names = {s.name for s in obs.spans if ":" not in s.name}
    assert task_names == set(result.trace.records)


def test_scenario_trace_exports_valid(observed_run, tmp_path_factory):
    obs, _ = observed_run
    assert validate_chrome_trace(chrome_trace(obs)) == []
    out = export_run(obs, tmp_path_factory.mktemp("telemetry"))
    assert validate_obs_dir(out) == []


def test_simulator_export_telemetry_roundtrips_config(tmp_path):
    config = Config(bb_mode=BBMode.PRIVATE, output_fraction=1.0)
    result = simulate(
        cori_spec(n_compute=1, n_bb_nodes=2),
        make_swarp(n_pipelines=1),
        config=config,
        observer=Observer(),
    )
    trace = result.trace
    out = result.export_telemetry(tmp_path / "telemetry")
    assert validate_obs_dir(out) == []
    doc = json.loads((out / "manifest.json").read_text())
    assert config_from_manifest(doc) == config
    assert doc["result"]["makespan"] == trace.makespan
    assert doc["workflow"]["n_tasks"] == len(make_swarp(n_pipelines=1))


def test_simulator_without_observer_cannot_export(tmp_path):
    result = simulate(cori_spec(), make_swarp())
    with pytest.raises(ValueError):
        result.export_telemetry(tmp_path)


# ----------------------------------------------------------------------
# A finished run is freed by reference counting
# ----------------------------------------------------------------------
@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("observed", [False, True, "monitors", "bus"])
def test_scenario_env_dies_with_its_result(no_cyclic_gc, observed, tmp_path):
    # Monitors and a live bus point back at their observer (weakly).
    obs = {
        False: lambda: None,
        True: Observer,
        "monitors": lambda: Observer(monitors=True),
        "bus": lambda: Observer(bus=LiveBus(tmp_path / "live")),
    }[observed]()
    result = run_genomes(n_chromosomes=2, observer=obs)
    env = weakref.ref(result.platform.env)
    del result, obs
    assert env() is None


def test_simulate_env_dies_with_its_result(no_cyclic_gc):
    result = simulate(
        cori_spec(n_compute=1, n_bb_nodes=1), make_fork_join(3), observer=True
    )
    env = weakref.ref(result.observer.env)
    del result
    assert env() is None


def test_fig13_point_frees_its_env(no_cyclic_gc, tmp_path, monkeypatch):
    envs = []
    real = fig13.run_genomes

    def spy(**kwargs):
        result = real(**kwargs)
        envs.append(weakref.ref(result.platform.env))
        return result

    monkeypatch.setattr(fig13, "run_genomes", spy)
    params = {"system": "cori", "fraction": 0.5, "n_chromosomes": 2}
    fig13.compute_point(params, obs_dir=tmp_path / "point")
    assert envs and envs[0]() is None


def test_live_bus_closes_at_the_final_sim_time(tmp_path):
    live = tmp_path / "live"
    result = simulate(
        cori_spec(n_compute=1, n_bb_nodes=1),
        make_fork_join(3),
        config={"live_dir": live},
    )
    assert result.observer.env.obs is None  # the run unhooked its observer
    heartbeat = json.loads((live / "heartbeat.json").read_text())
    assert heartbeat["closed"] is True
    assert heartbeat["sim_time"] == pytest.approx(result.makespan, rel=1e-9)
