"""Event budget: one process per task, and every other wait a callback.

A task's process is its only generator.  Dependency waits, per-file I/O
logging, stripe joins, flow latency delays and metadata-server gating
run as callbacks on the events they wait for, so neither a transfer nor
a metadata operation creates a :class:`~repro.des.Process`.  The counts
below are taken by wrapping :meth:`Environment.step` (one call per
processed event) and ``Process.__init__``.
"""

import pytest

import repro
from repro.des import Environment, Process, Resource
from repro.network import FlowNetwork
from repro.platform.presets import cori_spec
from repro.scenarios import run_swarp
from repro.storage import BBMode
from repro.workflow.synthetic import make_chain

#: Events a chain task may process.  It takes 11 on this platform: its
#: process start, the core grant, the compute timeout, its done event and
#: its process end, plus a flow wake-up, the flow's completion and the
#: stripe join for each of its two transfers.
CHAIN_EVENTS_PER_TASK = 12


@pytest.fixture
def counts(monkeypatch):
    """Counters of processed events, processes, transfers and
    metadata-server requests made while the test runs."""
    seen = {"events": 0, "processes": 0, "transfers": 0, "metadata": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Environment, "step", counting("events", Environment.step))
    monkeypatch.setattr(Process, "__init__", counting("processes", Process.__init__))
    monkeypatch.setattr(
        FlowNetwork, "transfer", counting("transfers", FlowNetwork.transfer)
    )
    monkeypatch.setattr(Resource, "request", counting("metadata", Resource.request))
    return seen


def test_chain_task_event_budget(counts):
    n = 200
    result = repro.simulate(cori_spec(n_compute=8, n_bb_nodes=1), make_chain(n))
    assert len(result.trace.records) == n
    assert counts["processes"] == n
    assert counts["transfers"] == 2 * n
    assert counts["events"] <= CHAIN_EVENTS_PER_TASK * n


def test_striped_emulated_swarp_creates_one_process_per_task(counts):
    result = run_swarp(
        bb_mode=BBMode.STRIPED, n_pipelines=4, emulated=True, seed=0
    )
    tasks = len(result.trace.records)
    # The run exercises both helper paths that used to be processes.
    assert counts["metadata"] > tasks
    assert counts["transfers"] > tasks
    assert counts["processes"] == tasks
