"""Integration tests for the event-driven flow network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import des
from repro.network import FlowNetwork, Link
from repro.network.flownet import _HEAP_SLACK
from repro.obs import Observer


def run_transfers(transfers):
    """Run a set of (start_time, size, links, kwargs) transfers.

    Returns {label: completion_time}.
    """
    env = des.Environment()
    net = FlowNetwork(env)
    done_at = {}

    def starter(env, net, start, size, links, kwargs, label):
        if start > 0:
            yield env.timeout(start)
        yield net.transfer(size, links, label=label, **kwargs)
        done_at[label] = env.now

    for i, (start, size, links, kwargs) in enumerate(transfers):
        env.process(starter(env, net, start, size, links, kwargs, f"t{i}"))
    env.run()
    return done_at


def test_single_transfer_duration():
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, 1000, [l], {})])
    assert done["t0"] == pytest.approx(10.0)


def test_latency_added_once():
    l = Link("l", bandwidth=100.0, latency=2.0)
    done = run_transfers([(0, 100, [l], {})])
    assert done["t0"] == pytest.approx(3.0)


def test_extra_latency_parameter():
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, 100, [l], {"latency": 5.0})])
    assert done["t0"] == pytest.approx(6.0)


def test_two_concurrent_flows_share_fairly():
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, 1000, [l], {}), (0, 1000, [l], {})])
    assert done["t0"] == pytest.approx(20.0)
    assert done["t1"] == pytest.approx(20.0)


def test_rate_recomputed_when_flow_leaves():
    """1000B and 250B sharing 100B/s: the small one leaves at t=10 and the
    big one speeds back up, finishing at 12.5 instead of 15."""
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, 1000, [l], {}), (5.0, 250, [l], {})])
    assert done["t1"] == pytest.approx(10.0)
    assert done["t0"] == pytest.approx(12.5)


def test_rate_recomputed_when_flow_joins():
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, 500, [l], {}), (2.5, 500, [l], {})])
    # t0: 250B alone by t=2.5, then 50B/s → 250 more bytes takes 5s → 7.5
    assert done["t0"] == pytest.approx(7.5)
    # t1: 50B/s until t0 leaves at 7.5 (250B done), then 100B/s → 10.0
    assert done["t1"] == pytest.approx(10.0)


def test_max_rate_cap_respected():
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, 100, [l], {"max_rate": 10.0})])
    assert done["t0"] == pytest.approx(10.0)


def test_capped_flow_leaves_bandwidth_for_others():
    l = Link("l", bandwidth=100.0)
    done = run_transfers(
        [(0, 100, [l], {"max_rate": 10.0}), (0, 900, [l], {})]
    )
    assert done["t0"] == pytest.approx(10.0)
    assert done["t1"] == pytest.approx(10.0)  # 90 B/s


def test_multi_link_flow_limited_by_bottleneck():
    fast = Link("fast", bandwidth=1000.0)
    slow = Link("slow", bandwidth=10.0)
    done = run_transfers([(0, 100, [fast, slow], {})])
    assert done["t0"] == pytest.approx(10.0)


def test_zero_size_transfer_completes_after_latency():
    l = Link("l", bandwidth=100.0, latency=1.0)
    done = run_transfers([(0, 0, [l], {"latency": 0.5})])
    assert done["t0"] == pytest.approx(1.5)


def test_loopback_transfer_without_links():
    done = run_transfers([(0, 12345, [], {"latency": 0.25})])
    assert done["t0"] == pytest.approx(0.25)


def test_negative_size_rejected():
    env = des.Environment()
    net = FlowNetwork(env)
    with pytest.raises(ValueError):
        net.transfer(-1, [])


def test_non_positive_max_rate_rejected():
    env = des.Environment()
    net = FlowNetwork(env)
    with pytest.raises(ValueError):
        net.transfer(1, [], max_rate=0)


def test_flow_records_achieved_bandwidth():
    env = des.Environment()
    net = FlowNetwork(env)
    l = Link("l", bandwidth=100.0)
    flow = env.run(until=net.transfer(1000, [l]))
    assert flow.achieved_bandwidth == pytest.approx(100.0)
    assert flow.elapsed == pytest.approx(10.0)


def test_completed_log_populated():
    # The network keeps no finished-flow log; an attached observer does.
    env = des.Environment()
    obs = Observer().attach(env)
    net = FlowNetwork(env)
    l = Link("l", bandwidth=100.0)
    net.transfer(100, [l])
    net.transfer(200, [l])
    env.run()
    assert len(obs.flows) == 2
    assert not net.active_flows


def test_utilization_full_while_transferring():
    env = des.Environment()
    net = FlowNetwork(env)
    l = Link("l", bandwidth=100.0)
    net.transfer(1000, [l])
    env.run(until=1.0)
    assert net.utilization(l) == pytest.approx(1.0)


def test_concurrency_penalty_slows_aggregate():
    """With a 10% penalty per extra flow, 2 flows share 90 B/s not 100."""
    l = Link("l", bandwidth=100.0, concurrency_penalty=0.1)
    done = run_transfers([(0, 450, [l], {}), (0, 450, [l], {})])
    assert done["t0"] == pytest.approx(10.0)
    assert done["t1"] == pytest.approx(10.0)


def test_many_flows_conserve_total_bytes():
    """n identical flows through one link finish in exactly n× single time."""
    l = Link("l", bandwidth=100.0)
    n = 16
    done = run_transfers([(0, 100, [l], {}) for _ in range(n)])
    for i in range(n):
        assert done[f"t{i}"] == pytest.approx(n * 1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=50),
            st.floats(min_value=1, max_value=1e4),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_makespan_bounds(arrivals):
    """Makespan is bounded below by total-bytes/capacity (after last idle)
    and above by sequential execution of everything."""
    cap = 100.0
    l = Link("l", bandwidth=cap)
    done = run_transfers([(start, size, [l], {}) for start, size in arrivals])
    makespan = max(done.values())
    total = sum(size for _, size in arrivals)
    last_arrival = max(start for start, _ in arrivals)
    assert makespan >= total / cap - 1e-6
    assert makespan <= last_arrival + total / cap + 1e-6


@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=10.0, max_value=1e4),
)
@settings(max_examples=40, deadline=None)
def test_simultaneous_equal_flows_finish_together(n, size):
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, size, [l], {}) for _ in range(n)])
    times = list(done.values())
    assert max(times) == pytest.approx(min(times), rel=1e-9)
    assert max(times) == pytest.approx(n * size / 100.0)


# ----------------------------------------------------------------------
# Regression: zero-byte flows and drained-flow sweeps
# ----------------------------------------------------------------------
def test_zero_size_transfer_with_links_completes_at_now():
    env = des.Environment()
    obs = Observer().attach(env)
    net = FlowNetwork(env)
    l = Link("l", bandwidth=100.0)
    seen = {}

    def proc(env):
        flow = yield net.transfer(0, [l], label="meta")
        seen["at"] = env.now
        seen["flow"] = flow

    env.process(proc(env))
    env.run()
    assert seen["at"] == 0.0
    assert seen["flow"].achieved_bandwidth is None
    assert seen["flow"] in obs._completed
    assert net.active_flows == []


def test_zero_size_transfer_does_not_skew_shares():
    l = Link("l", bandwidth=100.0)
    done = run_transfers([(0, 1000, [l], {}), (1, 0, [l], {})])
    # The metadata-only transfer completes instantly and never competes
    # for bandwidth, so the bulk flow still takes exactly 10 s.
    assert done["t1"] == pytest.approx(1.0)
    assert done["t0"] == pytest.approx(10.0)


def test_zero_size_achieved_bandwidth_none_even_with_latency():
    env = des.Environment()
    net = FlowNetwork(env)
    l = Link("l", bandwidth=100.0, latency=0.5)
    seen = {}

    def proc(env):
        flow = yield net.transfer(0, [l])
        seen["at"] = env.now
        seen["flow"] = flow

    env.process(proc(env))
    env.run()
    assert seen["at"] == pytest.approx(0.5)
    # elapsed > 0 but zero bytes moved: bandwidth is undefined, not 0.0
    # (a 0.0 would poison averaged bandwidth accounting).
    assert seen["flow"].achieved_bandwidth is None


def test_zero_size_loopback_achieved_bandwidth_none():
    env = des.Environment()
    net = FlowNetwork(env)
    seen = {}

    def proc(env):
        flow = yield net.transfer(0, [], latency=0.25, max_rate=100.0)
        seen["flow"] = flow

    env.process(proc(env))
    env.run()
    assert seen["flow"].achieved_bandwidth is None


def test_drained_flow_swept_before_new_admission():
    env = des.Environment()
    net = FlowNetwork(env)
    l = Link("l", bandwidth=1.0)
    seen = {}

    def starter(env):
        net.transfer(1.0, [l], label="old")
        # Jump to one float-ulp before the old flow's completion: its
        # residue is below the finish threshold but its wake-up has not
        # fired yet.
        yield env.timeout(1.0 - 1e-13)
        net.transfer(1.0, [l], label="new")
        seen["active"] = [f.label for f in net.active_flows]
        seen["rates"] = {f.label: f.rate for f in net.active_flows}

    env.process(starter(env))
    env.run()
    # The drained flow must be finished during admission, not left to
    # claim half the link until the next wake-up.
    assert seen["active"] == ["new"]
    assert seen["rates"]["new"] == pytest.approx(1.0)


def test_completion_heaps_hold_one_entry_per_class_not_per_flow():
    """1,000 flows admitted in ten waves onto one link form one class:
    the completion heaps stay bounded by the live class count, and the run
    takes exactly as many DES events as it did with per-flow heaps."""
    obs = Observer(metrics=["des", "network"])
    env = des.Environment()
    obs.attach(env)
    net = FlowNetwork(env)
    link = Link("l", bandwidth=1e6)
    peak = []

    def record(_event):
        bound = 2 * net._solver.n_classes + _HEAP_SLACK
        peak.append(max(len(net._due), len(net._crossing)) - bound)

    def admit_waves():
        for wave in range(10):
            for i in range(100):
                size = 1e4 + 37.0 * (wave * 100 + i)
                net.transfer(size, [link]).callbacks.append(record)
            yield env.timeout(0.5)

    env.process(admit_waves())
    env.run()
    assert len(obs.flows) == 1000 and len(peak) == 1000
    assert max(peak) <= 0
    obs.end_run()
    assert obs.registry.counter("des.events_processed").value == 2021
