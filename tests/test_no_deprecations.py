"""The public entry points run without a ``DeprecationWarning``.

Each check turns ``DeprecationWarning`` into an error around the calls
under test only, never for the whole session, so a deprecated path
reached from any of these entry points fails here.
"""

import contextlib
import json
import warnings

import pytest

import repro
from repro.obs import config_from_manifest
from repro.platform import platform_from_json, platform_to_json
from repro.platform.presets import cori_spec, summit_spec
from repro.platform.topologies import build_dragonfly, build_fat_tree
from repro.simulator import main
from repro.workflow.swarp import make_swarp
from repro.workflow.wfformat import workflow_to_wfformat


@contextlib.contextmanager
def deprecations_fail():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


@pytest.mark.parametrize(
    "preset",
    [
        lambda: cori_spec(n_compute=1, n_bb_nodes=1),
        lambda: summit_spec(n_compute=1),
    ],
    ids=["cori", "summit"],
)
def test_simulate_on_presets_with_mapping_config(preset):
    spec = preset()
    with deprecations_fail():
        result = repro.simulate(
            spec,
            make_swarp(),
            config={"bb_mode": "private", "input_fraction": 0.5},
        )
    assert result.makespan > 0


@pytest.mark.parametrize(
    "build", [build_fat_tree, build_dragonfly], ids=["fat-tree", "dragonfly"]
)
def test_simulator_on_generated_topologies(build):
    spec = build(2, 2)
    with deprecations_fail():
        trace = repro.simulate(spec, make_swarp(n_pipelines=2)).trace
    assert trace.makespan > 0


def test_cli_with_obs_dir(tmp_path, capsys):
    platform_path = tmp_path / "platform.json"
    workflow_path = tmp_path / "workflow.json"
    platform_to_json(cori_spec(n_compute=1, n_bb_nodes=1), platform_path)
    workflow_to_wfformat(make_swarp(n_pipelines=1), path=workflow_path)
    argv = [
        "--platform", str(platform_path),
        "--workflow", str(workflow_path),
        "--obs-dir", str(tmp_path / "obs"),
    ]
    with deprecations_fail():
        assert main(argv) == 0
    assert "telemetry written to" in capsys.readouterr().out


def test_config_from_v1_manifest():
    v1_doc = {
        "schema": "repro.obs.manifest/1",
        "simulator_version": "1.0.0",
        "config": {
            "bb_mode": "private",
            "input_fraction": 1.0,
            "intermediate_fraction": 1.0,
            "output_fraction": 0.0,
            "use_amdahl_alpha": False,
            "network_allocator": "max-min",
            "queue_policy": "fifo",
        },
    }
    with deprecations_fail():
        config = config_from_manifest(v1_doc)
    assert config == repro.Config(bb_mode="private")


def test_roleless_platform_json_is_rejected_naming_the_hosts(tmp_path):
    spec = cori_spec(n_compute=2, n_bb_nodes=1)
    doc = json.loads(platform_to_json(spec))
    for host in doc["hosts"]:
        del host["role"]
    path = tmp_path / "platform.json"
    path.write_text(json.dumps(doc))
    loaded = platform_from_json(path)
    with pytest.raises(ValueError, match="without a role") as info:
        repro.simulate(loaded, make_swarp())
    for host in spec.hosts:
        assert host.name in str(info.value)
