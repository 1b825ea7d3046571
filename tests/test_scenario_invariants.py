"""Randomized scenarios: conservation and ordering invariants end to end.

Hypothesis draws a small platform — a ``platform.topologies`` fat-tree
or dragonfly (PFS only), or a preset with a burst buffer in each of the
three modes (shared ``private``, shared ``striped``, Summit-style
on-node) — a ``workflow.synthetic`` workflow, data placement fractions
and a queue policy.  Each scenario runs with every invariant monitor on
(a violation raises mid-run), and its final trace must satisfy:

* the bytes the network moved for each file equal the file's size times
  the I/O operations on it;
* every storage service's occupancy stays within ``[0, capacity]``;
* every task runs exactly once, after all of its parents;
* the critical-path profile sums to the makespan;
* a second run produces the identical digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.obs import Observer
from repro.obs.invariants import InvariantMonitor, standard_monitors
from repro.platform.presets import cori_spec, summit_spec
from repro.platform.topologies import build_dragonfly, build_fat_tree
from repro.profile import build_profile
from repro.api import simulate
from repro.storage import BBMode
from repro.wms.policies import policy_names
from repro.workflow.synthetic import make_chain, make_fork_join, make_random_dag

_REL = 1e-9


class OccupancyRecorder(InvariantMonitor):
    """Keeps every occupancy sample for the final-trace check."""

    name = "occupancy_recorder"

    def __init__(self) -> None:
        self.samples: list[tuple[str, float, float]] = []

    def on_storage_occupancy(self, service, used, capacity) -> None:
        self.samples.append((service, used, capacity))
        self.passed()


PLATFORMS = {
    "fat-tree": lambda n: (build_fat_tree(pods=2, nodes_per_pod=n), BBMode.STRIPED),
    "dragonfly": lambda n: (build_dragonfly(groups=2, nodes_per_group=n), BBMode.STRIPED),
    "bb-private": lambda n: (cori_spec(n_compute=n, n_bb_nodes=2), BBMode.PRIVATE),
    "bb-striped": lambda n: (cori_spec(n_compute=n, n_bb_nodes=2), BBMode.STRIPED),
    "bb-on-node": lambda n: (summit_spec(n_compute=n), BBMode.STRIPED),
}


@st.composite
def scenarios(draw):
    platform = draw(st.sampled_from(sorted(PLATFORMS)))
    n_nodes = draw(st.integers(min_value=1, max_value=2))
    shape = draw(st.sampled_from(["chain", "fork-join", "random"]))
    size = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    fractions = st.sampled_from([0.0, 0.5, 1.0])
    return {
        "platform": platform,
        "n_nodes": n_nodes,
        "shape": shape,
        "size": size,
        "seed": seed,
        "policy": draw(st.sampled_from(policy_names())),
        "input_fraction": draw(fractions),
        "intermediate_fraction": draw(fractions),
        "output_fraction": draw(fractions),
    }


def _workflow(scenario):
    size, seed = scenario["size"], scenario["seed"]
    if scenario["shape"] == "chain":
        return make_chain(size, task_seconds=1.0 + seed % 7, file_size=1e6 * (1 + seed % 50))
    if scenario["shape"] == "fork-join":
        return make_fork_join(size, task_seconds=1.0 + seed % 5, file_size=1e6 * (1 + seed % 30))
    return make_random_dag(size + 1, seed=seed, max_task_seconds=5.0, max_file_size=50e6)


def _run(scenario):
    spec, mode = PLATFORMS[scenario["platform"]](scenario["n_nodes"])
    workflow = _workflow(scenario)
    config = Config(
        bb_mode=mode,
        input_fraction=scenario["input_fraction"],
        intermediate_fraction=scenario["intermediate_fraction"],
        output_fraction=scenario["output_fraction"],
        queue_policy=scenario["policy"],
    )
    recorder = OccupancyRecorder()
    observer = Observer(monitors=[*standard_monitors(), recorder])
    trace = simulate(spec, workflow, config=config, observer=observer).trace
    return workflow, trace, observer, recorder


def _flow_file(label: str) -> str:
    """The file a storage flow's label names: ``<service>:<kind>:<file>``,
    ``<service>:stripe:<file>@<bb>`` or ``stage:<file>:<from>-><to>``
    (service names may contain colons; file names here do not)."""
    if label.startswith("stage:"):
        return label.split(":")[1]
    _, kind, tail = label.rsplit(":", 2)
    return tail.rpartition("@")[0] if kind == "stripe" else tail


def _digest(trace) -> str:
    doc = {
        "records": {
            name: [rec.start, rec.end, rec.host]
            for name, rec in sorted(trace.records.items())
        },
        "io": [op.to_dict() for op in trace.io_operations],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_random_scenarios_keep_their_invariants(scenario):
    workflow, trace, observer, recorder = _run(scenario)

    # Bytes moved per file == file size x the operations on it.
    expected: dict[str, float] = defaultdict(float)
    for op in trace.io_operations:
        expected[op.file] += op.size
    moved: dict[str, float] = defaultdict(float)
    for flow in observer.flows:
        moved[_flow_file(flow["label"])] += flow["size"]
    assert moved.keys() == expected.keys()
    for name, nbytes in expected.items():
        assert math.isclose(moved[name], nbytes, rel_tol=_REL), (name, moved[name], nbytes)

    # Storage occupancy stays within [0, capacity].
    assert recorder.samples
    for service, used, capacity in recorder.samples:
        assert 0.0 <= used <= capacity * (1 + _REL), (service, used, capacity)

    # Every task ran once, after all of its parents.
    assert sorted(trace.records) == sorted(task.name for task in workflow)
    for task in workflow:
        start = trace.records[task.name].start
        for parent in workflow.parents(task.name):
            assert start >= trace.records[parent.name].end, (task.name, parent.name)

    # The critical-path profile sums to the makespan.
    profile = build_profile(trace, observer=observer)
    assert math.isclose(
        sum(profile.attribution.values()), trace.makespan,
        rel_tol=_REL, abs_tol=_REL,
    )

    # Deterministic: a second run gives the identical digest.
    _, again, _, _ = _run(scenario)
    assert _digest(again) == _digest(trace)
