"""What a run keeps: only what its result needs.

* The flow network keeps no log of finished flows; only an attached
  observer records them, so an unobserved run holds no ``Flow`` once the
  flows' done events have fired.
* Trace records are slotted dataclasses (no per-instance ``__dict__``)
  that still round-trip through JSON and ``dataclasses.asdict``.
* ``Workflow`` keeps its adjacency as tuples, in first-insertion order.
"""

from __future__ import annotations

import dataclasses
import gc

import repro
from repro import des
from repro.network import FlowNetwork, Link
from repro.network.flownet import Flow
from repro.obs import Observer
from repro.platform.presets import cori_spec
from repro.traces import ExecutionTrace, IOOperation, TaskRecord
from repro.workflow.genomes import make_1000genomes
from repro.workflow.synthetic import make_chain


def _live_flows() -> int:
    gc.collect()
    return sum(isinstance(o, Flow) for o in gc.get_objects())


def test_network_keeps_no_finished_flow():
    env = des.Environment()
    net = FlowNetwork(env)
    link = Link("l", bandwidth=100.0)
    for size in (100.0, 200.0, 0.0):
        net.transfer(size, [link])
    net.transfer(50.0, [], latency=1.0)
    env.run()
    assert net.active_flows == []
    assert _live_flows() == 0


def test_unobserved_result_holds_no_flow():
    result = repro.simulate(cori_spec(n_compute=8, n_bb_nodes=1), make_chain(2000))
    assert _live_flows() == 0
    assert len(result.trace.records) == 2000


def test_observed_run_records_every_flow():
    # One read and one write per chain stage.
    obs = Observer()
    repro.simulate(
        cori_spec(n_compute=8, n_bb_nodes=1), make_chain(2000), observer=obs
    )
    assert len(obs.flows) == 4000
    assert obs.registry.counter("network.flows_completed").value == 4000


def _trace() -> ExecutionTrace:
    trace = ExecutionTrace("w")
    trace.add_record(TaskRecord(
        name="t", group="g", host="cn0", cores=4, ready=0.5, start=1.0,
        read_start=1.0, read_end=2.0, compute_end=8.0, write_end=10.0, end=10.0,
    ))
    trace.add_record(TaskRecord(name="u", group="g", host="cn1", cores=1))
    for kind, start in (("stage_in", 0.0), ("read", 1.0), ("write", 8.0)):
        trace.log_io(IOOperation(
            task="t", file=f"f-{kind}", service="bb", kind=kind,
            size=1e6, start=start, end=start + 1.0,
        ))
    return trace


def test_slotted_records_round_trip():
    trace = _trace()
    for item in [*trace.records.values(), *trace.io_operations]:
        assert not hasattr(item, "__dict__")
        assert type(item)(**dataclasses.asdict(item)) == item
    loaded = ExecutionTrace.from_json(trace.to_json())
    assert loaded.records == trace.records
    assert loaded.io_operations == trace.io_operations


def test_adjacency_keeps_first_insertion_order():
    """``parents``, ``children`` and ``consumers_of`` list tasks in the
    order construction first meets each edge: a task's parents by its
    inputs, a task's children and a file's consumers by task order."""
    wf = make_1000genomes(22)
    producer = {f.name: t.name for t in wf for f in t.outputs}
    parents: dict[str, list[str]] = {t.name: [] for t in wf}
    children: dict[str, list[str]] = {t.name: [] for t in wf}
    consumers: dict[str, list[str]] = {}
    for task in wf:
        for f in task.inputs:
            consumers.setdefault(f.name, []).append(task.name)
            p = producer.get(f.name)
            if p is not None and p != task.name and p not in parents[task.name]:
                parents[task.name].append(p)
                children[p].append(task.name)
    for task in wf:
        assert [t.name for t in wf.parents(task.name)] == parents[task.name]
        assert [t.name for t in wf.children(task.name)] == children[task.name]
    for name in wf.files:
        assert [t.name for t in wf.consumers_of(name)] == consumers.get(name, [])
    assert sum(map(len, children.values())) > 1000
