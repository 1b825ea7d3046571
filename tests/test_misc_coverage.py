"""Tests for smaller surfaces not covered elsewhere."""

import pytest

from repro import des
from repro.scenarios import run_swarp
from repro.storage import BBMode


def test_pipeline_makespan_excludes_stage_in():
    result = run_swarp(
        system="cori",
        bb_mode=BBMode.PRIVATE,
        input_fraction=1.0,
        n_pipelines=2,
        include_stage_in=True,
        emulated=True,
        seed=None,
    )
    stage = result.trace.task_record("stage_in")
    assert stage.duration > 0
    assert result.pipeline_makespan < result.makespan
    assert result.pipeline_makespan == pytest.approx(
        result.makespan - stage.duration, rel=1e-6
    )


def test_pipeline_makespan_empty_workflow():
    from repro.compute import ComputeService
    from repro.platform import Platform
    from repro.platform.presets import cori_spec
    from repro.scenarios import ScenarioResult
    from repro.storage import ParallelFileSystem
    from repro.wms import WorkflowEngine
    from repro.workflow import Workflow

    env = des.Environment()
    plat = Platform(env, cori_spec())
    wf = Workflow("empty", [])
    engine = WorkflowEngine(
        plat, wf, ComputeService(plat, ["cn0"]), ParallelFileSystem(plat)
    )
    trace = engine.run()
    result = ScenarioResult(trace=trace, platform=plat, engine=engine, workflow=wf)
    assert result.pipeline_makespan == 0.0


def test_engine_run_until_partial():
    """run(until=t) stops the clock mid-execution; the trace holds the
    events so far."""
    from repro.compute import ComputeService
    from repro.platform import Platform
    from repro.platform.presets import TABLE_I, cori_spec
    from repro.storage import ParallelFileSystem
    from repro.wms import WorkflowEngine
    from repro.workflow import Task, Workflow

    env = des.Environment()
    plat = Platform(env, cori_spec())
    wf = Workflow(
        "long", [Task("t", flops=100 * TABLE_I["cori"]["core_speed"], cores=1)]
    )
    engine = WorkflowEngine(
        plat, wf, ComputeService(plat, ["cn0"]), ParallelFileSystem(plat),
        host_assignment=lambda t: "cn0",
    )
    trace = engine.run(until=5.0)
    assert env.now == 5.0
    assert "t" not in trace.records  # still computing


def test_wfformat_zero_cores_falls_back_to_default():
    from repro.workflow.wfformat import workflow_from_wfformat

    doc = {
        "name": "w",
        "workflow": {
            "tasks": [
                {
                    "name": "t",
                    "runtimeInSeconds": 1.0,
                    "cores": 0,
                    "files": [],
                    "parents": [],
                }
            ]
        },
    }
    wf = workflow_from_wfformat(doc, default_cores=4)
    assert wf.task("t").cores == 4


def test_route_latency_paid_by_scenarios():
    """Fabric latencies exist in the presets and are non-negative."""
    from repro.platform import Platform
    from repro.platform.presets import summit_spec

    env = des.Environment()
    plat = Platform(env, summit_spec(n_compute=2))
    route = plat.route("cn0", "cn1")
    assert route.latency > 0


def test_scenario_mean_duration_unknown_group():
    result = run_swarp(n_pipelines=1)
    with pytest.raises(KeyError):
        result.mean_duration("nonexistent")


def test_simulator_config_defaults():
    from repro.config import Config
    from repro.storage import BBMode as Mode

    config = Config()
    assert config.bb_mode == Mode.STRIPED
    assert config.input_fraction == 1.0
    assert config.output_fraction == 0.0
