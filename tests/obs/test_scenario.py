"""End-to-end: a full instrumented scenario produces valid telemetry.

These are the acceptance checks of the observability layer: running a
real scenario with an observer attached yields a loadable Chrome trace,
occupancy series that respect BB capacity, and a manifest that
reconstructs the exact simulator configuration.
"""

import json

import pytest

from repro.config import Config
from repro.obs import (
    Observer,
    chrome_trace,
    config_from_manifest,
    export_run,
    validate_chrome_trace,
    validate_obs_dir,
)
from repro.platform.presets import cori_spec
from repro.scenarios import run_swarp
from repro.simulator import Simulator
from repro.storage import BBMode
from repro.workflow.swarp import make_swarp


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
    simulator = Simulator(
        cori_spec(n_compute=1, n_bb_nodes=2),
        make_swarp(n_pipelines=1),
        config,
        observer=Observer(),
    )
    trace = simulator.run()
    out = simulator.export_telemetry(tmp_path / "telemetry", trace=trace)
    assert validate_obs_dir(out) == []
    doc = json.loads((out / "manifest.json").read_text())
    assert config_from_manifest(doc) == config
    assert doc["result"]["makespan"] == trace.makespan
    assert doc["workflow"]["n_tasks"] == len(make_swarp(n_pipelines=1))


def test_simulator_without_observer_cannot_export(tmp_path):
    simulator = Simulator(cori_spec(), make_swarp())
    simulator.run()
    with pytest.raises(ValueError):
        simulator.export_telemetry(tmp_path)
