"""An old trace document loads into the same trace the engine builds now.

``swarp_staged_old.json`` is a staged SWarp run (stage-in, resample,
combine, stage-out) exported while traces still carried an event log,
before that log stopped repeating each record's stamps: its events
include ``task_ready``, the staging copies' ``stage_copy_*`` and
``stage_out_*`` marks, and ``task_start``, ``read_end``,
``compute_end``, ``write_end`` and ``task_end``; its task entries carry
the derived ``read_time``/``compute_time``/``write_time`` keys and no
``ready``.  Loading it must give the records (ready stamps included),
the read and write operations, the makespan and the profile of a fresh
run.  A fresh run also logs each staging copy as a ``stage_in`` or
``stage_out`` operation, which the old document cannot carry.
"""

import json
from pathlib import Path

from repro import des
from repro.compute import ComputeService
from repro.platform import Platform
from repro.platform.presets import cori_spec
from repro.profile import build_profile
from repro.storage import BBMode, ParallelFileSystem, SharedBurstBuffer
from repro.traces import ExecutionTrace
from repro.wms import AllBB, WorkflowEngine
from repro.workflow.swarp import make_swarp

OLD_DOCUMENT = Path(__file__).with_name("swarp_staged_old.json")
REPEATED_KINDS = {"task_start", "read_end", "compute_end", "write_end", "task_end"}
DERIVED_KEYS = {"read_time", "compute_time", "write_time"}


def staged_swarp_trace() -> ExecutionTrace:
    """The run the old document was exported from."""
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    bb = SharedBurstBuffer(platform, ["bb0"], BBMode.PRIVATE, owner_host="cn0")
    engine = WorkflowEngine(
        platform,
        make_swarp(n_pipelines=1, cores_per_task=4, include_stage_out=True),
        ComputeService(platform, ["cn0"]),
        ParallelFileSystem(platform),
        bb_for_host=lambda host: bb,
        placement=AllBB(),
        host_assignment=lambda task: "cn0",
    )
    return engine.run()


def test_old_document_carries_the_dropped_kinds_and_keys():
    doc = json.loads(OLD_DOCUMENT.read_text())
    assert REPEATED_KINDS <= {e["kind"] for e in doc["events"]}
    assert all(DERIVED_KEYS <= set(task) for task in doc["tasks"])

    new_doc = json.loads(staged_swarp_trace().to_json())
    assert "events" not in new_doc
    assert not any(DERIVED_KEYS & set(task) for task in new_doc["tasks"])


def test_old_document_loads_into_the_same_trace():
    old = ExecutionTrace.from_json_file(OLD_DOCUMENT)
    new = staged_swarp_trace()
    assert old.workflow_name == new.workflow_name
    # Records compare every field, the ready stamp (an old
    # ``task_ready`` event) included.
    assert old.records == new.records
    assert all(r.ready is not None for r in old.records.values())
    staging = {"stage_in", "stage_out"}
    assert old.io_operations == [
        op for op in new.io_operations if op.kind not in staging
    ]
    # Each staging copy the old log marked is one stage op now, with
    # the same task, file and times.
    events = json.loads(OLD_DOCUMENT.read_text())["events"]
    marks = {"start": [], "end": []}
    for e in events:
        if e["kind"].startswith(("stage_copy_", "stage_out_")):
            marks[e["kind"].rpartition("_")[2]].append((e["task"], e["detail"], e["time"]))
    stage_ops = [op for op in new.io_operations if op.kind in staging]
    assert marks["start"] == [(op.task, op.file, op.start) for op in stage_ops]
    assert marks["end"] == [(op.task, op.file, op.end) for op in stage_ops]
    assert {op.kind for op in stage_ops} == staging
    assert old.makespan == new.makespan
    assert build_profile(old).to_doc() == build_profile(new).to_doc()

