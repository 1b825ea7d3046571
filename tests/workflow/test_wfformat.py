"""Tests for WfCommons JSON import/export."""

import json

import pytest

from repro.platform.presets import TABLE_I
from repro.workflow import File, Task, Workflow
from repro.workflow.genomes import make_1000genomes
from repro.workflow.swarp import make_swarp
from repro.workflow.wfformat import workflow_from_wfformat, workflow_to_wfformat
from tests.workflow.nx_view import digraph


def small_workflow():
    f = File("f", 1000)
    return Workflow(
        "small",
        [
            Task("a", flops=3.68e10, outputs=(f,), cores=2, group="gen"),
            Task("b", flops=7.36e10, inputs=(f,), group="use"),
        ],
    )


def test_export_schema_shape():
    doc = workflow_to_wfformat(small_workflow())
    assert doc["name"] == "small"
    assert doc["schemaVersion"]
    tasks = doc["workflow"]["tasks"]
    assert [t["name"] for t in tasks] == ["a", "b"]
    assert tasks[1]["parents"] == ["a"]
    files_a = tasks[0]["files"]
    assert files_a == [{"link": "output", "name": "f", "sizeInBytes": 1000}]


def test_export_runtime_uses_reference_speed():
    doc = workflow_to_wfformat(small_workflow())
    runtime = doc["workflow"]["tasks"][0]["runtimeInSeconds"]
    assert runtime == pytest.approx(3.68e10 / TABLE_I["cori"]["core_speed"])


def test_roundtrip_preserves_structure():
    original = small_workflow()
    doc = workflow_to_wfformat(original)
    loaded = workflow_from_wfformat(doc)
    assert set(loaded.tasks) == set(original.tasks)
    for name in original.tasks:
        o, l = original.task(name), loaded.task(name)
        assert l.flops == pytest.approx(o.flops)
        assert l.cores == o.cores
        assert {f.name for f in l.inputs} == {f.name for f in o.inputs}
        assert {f.name for f in l.outputs} == {f.name for f in o.outputs}
    assert list(digraph(loaded).edges) == list(digraph(original).edges)


def test_roundtrip_via_file(tmp_path):
    path = tmp_path / "trace.json"
    workflow_to_wfformat(make_swarp(n_pipelines=2), path=path)
    loaded = workflow_from_wfformat(path)
    assert len(loaded) == 5
    assert loaded.task("stage_in").category.value == "stage_in"


def test_roundtrip_genomes_instance():
    doc = workflow_to_wfformat(make_1000genomes(n_chromosomes=2))
    loaded = workflow_from_wfformat(doc)
    assert len(loaded) == 1 + 2 * 41
    assert loaded.data_footprint == pytest.approx(
        make_1000genomes(n_chromosomes=2).data_footprint, rel=1e-6
    )


def test_import_from_json_string():
    text = json.dumps(workflow_to_wfformat(small_workflow()))
    loaded = workflow_from_wfformat(text)
    assert len(loaded) == 2


def test_import_legacy_jobs_key():
    doc = workflow_to_wfformat(small_workflow())
    doc["workflow"]["jobs"] = doc["workflow"].pop("tasks")
    loaded = workflow_from_wfformat(doc)
    assert len(loaded) == 2


def test_import_rejects_non_wfcommons():
    with pytest.raises(ValueError, match="WfCommons"):
        workflow_from_wfformat({"something": "else"})


def test_import_with_custom_speed_scales_flops():
    doc = workflow_to_wfformat(small_workflow())
    fast = workflow_from_wfformat(doc, reference_core_speed=2 * TABLE_I["cori"]["core_speed"])
    slow = workflow_from_wfformat(doc)
    assert fast.task("a").flops == pytest.approx(2 * slow.task("a").flops)


def test_export_with_trace_uses_observed_runtimes():
    """Exporting an executed workflow produces a WorkflowHub-style trace
    with measured runtimes and makespan."""
    from repro.scenarios import run_swarp

    result = run_swarp(n_pipelines=1, include_stage_in=False)
    doc = workflow_to_wfformat(result.workflow, trace=result.trace)
    assert doc["workflow"]["makespanInSeconds"] == pytest.approx(result.makespan)
    by_name = {t["name"]: t for t in doc["workflow"]["tasks"]}
    record = result.trace.task_record("resample_0")
    assert by_name["resample_0"]["runtimeInSeconds"] == pytest.approx(
        record.duration
    )
    # Observed runtimes include I/O, so they differ from the spec export.
    spec = workflow_to_wfformat(result.workflow)
    assert (
        by_name["resample_0"]["runtimeInSeconds"]
        != {t["name"]: t for t in spec["workflow"]["tasks"]}["resample_0"][
            "runtimeInSeconds"
        ]
    )


def test_executed_trace_reimports():
    from repro.scenarios import run_swarp

    result = run_swarp(n_pipelines=2, include_stage_in=False)
    doc = workflow_to_wfformat(result.workflow, trace=result.trace)
    loaded = workflow_from_wfformat(doc)
    assert set(loaded.tasks) == set(result.workflow.tasks)
