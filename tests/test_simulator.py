"""Tests for the WRENCH-style files-in/trace-out run (``repro.simulate``)
and its CLI."""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.platform import HostRole, platform_to_json
from repro.platform.presets import BB_DISK, cori_spec, summit_spec
from repro.platform.units import GB
from repro.config import Config
from repro.api import simulate
from repro.simulator import main
from repro.storage import BBMode
from repro.storage.base import InsufficientStorage
from repro.workflow.genomes import make_1000genomes
from repro.workflow.swarp import make_swarp
from repro.workflow.wfformat import workflow_to_wfformat

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def files(tmp_path):
    platform_path = tmp_path / "platform.json"
    workflow_path = tmp_path / "workflow.json"
    platform_to_json(cori_spec(n_compute=1, n_bb_nodes=2), platform_path)
    workflow_to_wfformat(make_swarp(n_pipelines=2), path=workflow_path)
    return platform_path, workflow_path


def test_simulator_runs_from_files(files):
    platform_path, workflow_path = files
    trace = simulate(platform_path, workflow_path).trace
    assert trace.makespan > 0
    assert len(trace.records) == 5


def test_simulator_accepts_objects():
    trace = simulate(cori_spec(), make_swarp()).trace
    assert trace.makespan > 0


def test_simulator_modes_differ():
    """Striped across 2 BB nodes and private to one node are different
    executions (flows touch different disk channels)."""
    spec = cori_spec(n_compute=1, n_bb_nodes=2)
    wf = make_swarp(n_pipelines=1)
    private = simulate(spec, wf, config=Config(bb_mode=BBMode.PRIVATE)).trace
    striped = simulate(spec, wf, config=Config(bb_mode=BBMode.STRIPED)).trace
    assert private.makespan > 0 and striped.makespan > 0


def test_simulator_on_summit_uses_local_bbs():
    trace = simulate(summit_spec(n_compute=1), make_swarp()).trace
    assert trace.makespan > 0


def _with_bb_capacity(spec, capacity):
    hosts = tuple(
        replace(
            h,
            disks=tuple(
                replace(d, capacity=capacity) if d.name == BB_DISK else d
                for d in h.disks
            ),
        )
        if h.role is HostRole.SHARED_BB
        else h
        for h in spec.hosts
    )
    return replace(spec, hosts=hosts)


def test_striped_bb_is_one_namespace_shared_by_every_host():
    """Eight hosts staging into a 2 GB striped allocation overflow it.

    One striped instance per host would give each its own 2 GB and let
    the run finish."""
    spec = _with_bb_capacity(cori_spec(n_compute=8, n_bb_nodes=1), 2 * GB)
    config = Config(input_fraction=1.0, intermediate_fraction=1.0)
    with pytest.raises(InsufficientStorage, match="bb-striped"):
        simulate(spec, make_1000genomes(n_chromosomes=2), config=config)


def test_private_bb_placement_ignores_the_string_hash_seed():
    """Private allocations pin to BB nodes by a stable checksum of the
    owner's name, so the schedule does not depend on PYTHONHASHSEED."""
    code = textwrap.dedent(
        """
        import json
        import repro
        from repro.platform.presets import cori_spec
        from repro.workflow.genomes import make_1000genomes

        result = repro.simulate(
            cori_spec(4, 2),
            make_1000genomes(4),
            config={"bb_mode": "private", "input_fraction": 1.0,
                    "intermediate_fraction": 1.0},
        )
        print(json.dumps(sorted(
            (r.name, r.host, r.start, r.end)
            for r in result.trace.records.values()
        )))
        """
    )
    schedules = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        schedules.append(json.loads(proc.stdout))
    assert schedules[0] == schedules[1]


def test_simulator_fraction_zero_keeps_pfs_only():
    config = Config(
        input_fraction=0.0, intermediate_fraction=0.0, output_fraction=0.0
    )
    bb = simulate(cori_spec(), make_swarp(), config=Config()).trace
    pfs_only = simulate(cori_spec(), make_swarp(), config=config).trace
    # Intermediates over the 100 MB/s PFS are much slower than the BB.
    assert pfs_only.makespan > bb.makespan


def test_simulator_requires_compute_hosts():
    from repro.platform.spec import DiskSpec, HostSpec, PlatformSpec

    spec = PlatformSpec(
        name="nocn",
        hosts=(
            HostSpec(
                name="pfs",
                cores=1,
                core_speed=1e9,
                role="pfs",
                disks=(DiskSpec("lustre", read_bandwidth=1e8, write_bandwidth=1e8),),
            ),
        ),
    )
    with pytest.raises(ValueError, match="compute hosts"):
        simulate(spec, make_swarp())


def test_simulator_requires_pfs_host():
    from repro.platform.spec import HostSpec, PlatformSpec

    spec = PlatformSpec(
        name="nopfs",
        hosts=(HostSpec(name="cn0", cores=4, core_speed=1e9, role="compute"),),
    )
    with pytest.raises(ValueError, match="pfs"):
        simulate(spec, make_swarp())


def test_cli_end_to_end(files, tmp_path, capsys):
    platform_path, workflow_path = files
    out = tmp_path / "trace.json"
    code = main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--mode", "private",
            "--input-fraction", "0.5",
            "-o", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "makespan:" in printed
    doc = json.loads(out.read_text())
    assert doc["makespan"] > 0
    assert len(doc["tasks"]) == 5


def test_cli_profile_flag(files, tmp_path, capsys):
    platform_path, workflow_path = files
    obs_dir = tmp_path / "telemetry"
    code = main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--profile",
            "--obs-dir", str(obs_dir),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "critical-path attribution" in printed
    assert "dominant:" in printed
    # The exported bundle includes a valid profile.
    from repro.obs import validate_obs_dir

    assert validate_obs_dir(obs_dir) == []
    assert (obs_dir / "profile.json").is_file()
    assert (obs_dir / "profile.folded").is_file()


def test_cli_profile_without_obs_dir(files, capsys):
    platform_path, workflow_path = files
    code = main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--profile",
        ]
    )
    assert code == 0
    assert "critical-path attribution" in capsys.readouterr().out


def test_cli_gantt(files, capsys):
    platform_path, workflow_path = files
    assert main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--gantt",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "legend: r=read" in out


def test_simulator_on_generated_fat_tree(tmp_path):
    """simulate runs on a topology-generated platform (BB-less)."""
    from repro.platform.topologies import build_fat_tree

    spec = build_fat_tree(pods=2, nodes_per_pod=2)
    trace = simulate(spec, make_swarp(n_pipelines=2)).trace
    assert trace.makespan > 0
    hosts = {r.host for r in trace.records.values()}
    assert hosts <= {"cn0", "cn1", "cn2", "cn3"}


def test_simulator_on_generated_dragonfly():
    from repro.platform.topologies import build_dragonfly

    spec = build_dragonfly(groups=2, nodes_per_group=2)
    trace = simulate(spec, make_swarp(n_pipelines=2)).trace
    assert trace.makespan > 0


def test_cli_manifest_records_the_config_main_built(files, tmp_path, monkeypatch):
    """The exported manifest carries the run's whole ``Config``,
    observability switches included (``--monitors`` used to be recorded
    as ``monitors: false``)."""
    import repro.api
    from repro.obs import config_from_manifest, validate_obs_dir

    built = []
    execute = repro.api._execute

    def recording(spec, workflow, config, *args, **kwargs):
        built.append(config)
        return execute(spec, workflow, config, *args, **kwargs)

    # main runs through repro.simulate, which runs _execute.
    monkeypatch.setattr(repro.api, "_execute", recording)
    platform_path, workflow_path = files
    obs_dir = tmp_path / "obs"
    assert main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--monitors",
            "--obs-dir", str(obs_dir),
        ]
    ) == 0
    recorded = config_from_manifest(
        json.loads((obs_dir / "manifest.json").read_text())
    )
    assert recorded.monitors is True
    assert [recorded] == built
    assert validate_obs_dir(obs_dir) == []
