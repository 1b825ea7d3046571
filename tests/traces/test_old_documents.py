"""An old trace document loads into the same trace the engine builds now.

``swarp_staged_old.json`` is a staged SWarp run (stage-in, resample,
combine, stage-out) exported before the event log stopped repeating
each record's stamps: its events include ``task_start``, ``read_end``,
``compute_end``, ``write_end`` and ``task_end``, and its task entries
carry the derived ``read_time``/``compute_time``/``write_time`` keys.
Loading it must give the records, I/O operations, makespan and profile
of a fresh run, so those kinds and keys carried nothing a reader used.
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
    assert not REPEATED_KINDS & {e["kind"] for e in new_doc["events"]}
    assert not any(DERIVED_KEYS & set(task) for task in new_doc["tasks"])


def test_old_document_loads_into_the_same_trace():
    old = ExecutionTrace.from_json_file(OLD_DOCUMENT)
    new = staged_swarp_trace()
    assert old.workflow_name == new.workflow_name
    assert old.records == new.records
    assert old.io_operations == new.io_operations
    assert old.makespan == new.makespan
    assert build_profile(old).to_doc() == build_profile(new).to_doc()
    # The events the new log keeps are the old log's, in order.
    assert [e for e in old.events if e.kind not in REPEATED_KINDS] == new.events

