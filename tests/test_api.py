"""Tests for the top-level ``repro.simulate`` facade."""

import json

import pytest

import repro
from repro.platform.presets import cori_spec
from repro.workflow.swarp import make_swarp


@pytest.fixture(scope="module")
def platform():
    return cori_spec(n_compute=1, n_bb_nodes=1)


@pytest.fixture(scope="module")
def workflow():
    return make_swarp()


def test_top_level_reexports():
    assert repro.simulate is repro.api.simulate
    assert repro.Result is repro.api.Result
    from repro.config import Config

    assert repro.Config is Config
    with pytest.raises(AttributeError):
        repro.Simulator  # removed: repro.simulate is the one front door
    from repro.storage import BBMode

    assert repro.BBMode is BBMode


def test_simulate_returns_result(platform, workflow):
    result = repro.simulate(platform, workflow)
    assert isinstance(result, repro.Result)
    assert result.makespan > 0
    assert result.makespan == result.trace.makespan
    assert len(result.trace.records) == len(list(workflow))
    assert result.telemetry is None  # unobserved run


def test_simulate_with_observer_collects_telemetry(platform, workflow):
    result = repro.simulate(platform, workflow, observer=True)
    assert result.telemetry is not None
    assert result.telemetry.counter("network.solver_calls").value > 0


def test_simulate_accepts_config_mapping(platform, workflow):
    default = repro.simulate(platform, workflow)
    result = repro.simulate(
        platform,
        workflow,
        config={"network_allocator": "max-min", "input_fraction": 1.0},
    )
    assert result.config.network_allocator == "max-min"
    assert result.makespan == default.makespan


def test_simulate_accepts_config_object(platform, workflow):
    config = repro.Config(bb_mode=repro.BBMode.PRIVATE)
    result = repro.simulate(platform, workflow, config=config)
    assert result.config is config
    assert result.makespan > 0


def test_simulate_from_json_files(tmp_path, platform, workflow):
    from repro.platform import platform_to_json
    from repro.workflow.wfformat import workflow_to_wfformat

    platform_path = tmp_path / "platform.json"
    workflow_path = tmp_path / "workflow.json"
    platform_to_json(platform, platform_path)
    workflow_to_wfformat(workflow, path=workflow_path)
    result = repro.simulate(platform_path, workflow_path)
    assert result.makespan > 0


def test_export_telemetry_requires_observer(tmp_path, platform, workflow):
    result = repro.simulate(platform, workflow)
    with pytest.raises(ValueError, match="without an observer"):
        result.export_telemetry(tmp_path / "telemetry")


def test_export_telemetry_writes_manifest(tmp_path, platform, workflow):
    result = repro.simulate(platform, workflow, observer=True)
    directory = result.export_telemetry(tmp_path / "telemetry")
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest  # shape covered by tests/obs; existence is enough here
