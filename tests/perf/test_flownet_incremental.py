"""FlowNetwork-level tests of the change-proportional event loop.

Every allocator name runs on one loop; the per-event loop it replaced
survives as ``tests/network/oracle_flownet.py``.  A simulation must
produce the same flow completion times as that reference (to float
rounding: per-component solves split the progressive-filling increments
differently from one whole-network solve).
"""

from __future__ import annotations

import math
import random

from repro import des
from repro.network import FlowNetwork, Link, max_min_fair_rates
from repro.obs import Observer

from tests.network.oracle_flownet import OracleFlowNetwork

_REL = 1e-9


def _run_random_sim(make_net, seed: int, n_flows: int = 60):
    """Admit randomized flows over a clustered topology; return
    completion times by label."""
    rng = random.Random(seed)
    env = des.Environment()
    net = make_net(env)
    finished = []
    clusters = [
        (Link(f"c{i}:up", bandwidth=100.0 + i), Link(f"c{i}:down", bandwidth=70.0 + i))
        for i in range(4)
    ]
    core = Link("core", bandwidth=500.0)

    def workload():
        for n in range(n_flows):
            up, down = clusters[rng.randrange(len(clusters))]
            links = [up, down] + ([core] if rng.random() < 0.2 else [])
            size = rng.uniform(1.0, 5000.0)
            cap = rng.choice([float("inf"), 40.0, 15.0])
            net.transfer(size, links, max_rate=cap, label=f"f{n}").callbacks.append(
                lambda done: finished.append(done.value)
            )
            if rng.random() < 0.7:
                yield env.timeout(rng.uniform(0.0, 3.0))
        # else: next transfer starts at the same instant (batch case)

    env.process(workload())
    env.run()
    assert len(finished) == n_flows
    return {f.label: f.completed_at for f in finished}


def test_incremental_matches_default_on_random_sims():
    for seed in (1, 7, 23):
        reference = _run_random_sim(OracleFlowNetwork, seed)
        for allocator in ("max-min", max_min_fair_rates):
            got = _run_random_sim(
                lambda env: FlowNetwork(env, allocator=allocator), seed
            )
            assert got.keys() == reference.keys()
            for label, expected in reference.items():
                assert math.isclose(
                    got[label], expected, rel_tol=_REL, abs_tol=1e-9
                ), (allocator, label, got[label], expected)


def test_same_timestamp_admits_are_batched_into_one_solve():
    """N admits at one instant cost one solve, not N, and no DES event."""
    obs = Observer(metrics=["network", "des"])
    env = des.Environment()
    obs.attach(env)
    net = FlowNetwork(env)
    link = Link("l", bandwidth=100.0)
    for n in range(8):
        net.transfer(1000.0, [link], label=f"f{n}")
    env.run()
    assert obs.registry.counter("network.solver_calls").value == 1
    assert [f["end"] for f in obs.flows] == [80.0] * 8
    # One wake-up plus the eight done events; the solve itself is an
    # end-of-instant call, not an event.
    obs.end_run()
    assert obs.registry.counter("des.events_processed").value == 9


def test_incremental_zero_byte_and_loopback_flows():
    env = des.Environment()
    net = FlowNetwork(env)
    link = Link("l", bandwidth=100.0)
    seen = []

    def p():
        done_empty = net.transfer(0.0, [link], latency=0.5)
        done_loop = net.transfer(123.0, [], max_rate=10.0)
        flow = yield done_empty
        seen.append(("empty", env.now, flow.size))
        flow = yield done_loop
        seen.append(("loop", env.now, flow.size))

    env.process(p())
    env.run()
    assert ("empty", 0.5, 0.0) in seen
    assert any(k == "loop" and math.isclose(t, 12.3) for k, t, _ in seen)


def test_incremental_observer_counters_present():
    obs = Observer(metrics=["network"])
    env = des.Environment()
    obs.attach(env)
    net = FlowNetwork(env)
    link = Link("l", bandwidth=10.0)

    def p():
        yield net.transfer(100.0, [link])

    env.process(p())
    env.run()
    registry = obs.registry
    assert registry.counter("network.solver_calls").value >= 1
    assert registry.counter("network.links_touched").value >= 1
    assert registry.counter("network.flows_solved").value >= 1
