"""Online invariant monitors: clean on stock runs, loud on seeded faults."""

import pytest

from repro import des
from repro.obs import (
    BBOccupancyMonitor,
    EventMonotonicityMonitor,
    InvariantViolation,
    LeaseBalanceMonitor,
    Observer,
    standard_monitors,
)
from repro.platform import Platform
from repro.platform.presets import cori_spec
from repro.scenarios import run_genomes, run_swarp
from repro.storage import BBMode
from repro.storage.provisioning import BBProvisioner

_GRANULE = 3.2e12  # DataWarp granularity used by the provisioner tests


def _violations(obs):
    counter = obs.registry.counters.get("invariants.violations")
    return counter.value if counter is not None else 0.0


def _checks(obs, name):
    return obs.registry.counter(f"invariants.{name}.checks").value


# ----------------------------------------------------------------------
# Stock scenarios are clean (and actually checked)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"bb_mode": BBMode.PRIVATE},
        {"bb_mode": BBMode.STRIPED},
        {"system": "summit"},
    ],
    ids=["cori-private", "cori-striped", "summit-onnode"],
)
def test_swarp_scenarios_report_zero_violations(kwargs):
    obs = Observer(monitors=True)
    run_swarp(n_pipelines=2, observer=obs, **kwargs)
    assert _violations(obs) == 0
    assert _checks(obs, "bb_occupancy") > 0
    assert _checks(obs, "link_capacity") > 0
    assert _checks(obs, "event_monotonicity") > 0


def test_full_genomes_reports_zero_violations():
    obs = Observer(monitors=True)
    run_genomes(observer=obs)  # the full 22-chromosome case study
    assert _violations(obs) == 0
    assert _checks(obs, "bb_occupancy") > 0
    assert _checks(obs, "link_capacity") > 0


def test_monitored_run_is_bit_identical():
    plain = run_swarp(n_pipelines=2).trace
    monitored = run_swarp(
        n_pipelines=2, observer=Observer(monitors=True)
    ).trace
    assert monitored.to_json() == plain.to_json()


def test_rate_feed_reaches_only_an_armed_observer(monkeypatch):
    """The flow network builds the flow list for ``on_rates_assigned``
    only when a monitor consumes it (that the armed feed still checks
    link capacity is pinned by test_swarp_scenarios_report_zero_violations)."""
    received = []
    monkeypatch.setattr(
        Observer, "on_rates_assigned", lambda self, flows: received.append(flows)
    )
    plain = Observer()
    assert not plain.monitors_rates
    run_swarp(n_pipelines=2, observer=plain)
    assert received == []
    monitored = Observer(monitors=True)
    assert monitored.monitors_rates
    run_swarp(n_pipelines=2, observer=monitored)
    assert received


# ----------------------------------------------------------------------
# Seeded fault: an oversubscribing rate allocator
# ----------------------------------------------------------------------
def _oversubscribe(flow_links, capacities, flow_caps=None):
    """Test-only allocator handing each flow 150% of its tightest link."""
    rates = []
    for links in flow_links:
        cap = min(capacities[link] for link in links) if links else 1.0
        rates.append(1.5 * cap)
    return rates


def test_oversubscribing_allocator_is_caught_with_event_chain():
    obs = Observer(monitors=True)
    with pytest.raises(InvariantViolation) as excinfo:
        run_swarp(n_pipelines=2, observer=obs,
                  network_allocator=_oversubscribe)
    violation = excinfo.value
    assert violation.invariant == "link_capacity"
    assert "over effective capacity" in violation.detail
    # The chain ends with the violation event itself, preceded by the
    # simulation events that led up to it.
    assert violation.chain
    assert violation.chain[-1]["event"] == "invariant_violation"
    assert violation.chain[-1]["fields"]["invariant"] == "link_capacity"
    assert _violations(obs) == 1
    # The formatted message carries the chain for the failure report.
    assert "recent event chain" in str(violation)
    # The detail names the transfers in flight on the offending link
    # (the chain alone holds only storage events).
    labels = violation.chain[-1]["fields"]["flow_labels"]
    assert labels and labels == sorted(labels)
    assert ".fits" in violation.detail
    assert all(label in violation.detail for label in labels)


def test_monitors_run_even_with_restricted_metric_groups():
    """Metric-group gating must not blind the monitors."""
    obs = Observer(metrics=["compute"], monitors=True)
    with pytest.raises(InvariantViolation):
        run_swarp(n_pipelines=2, observer=obs,
                  network_allocator=_oversubscribe)


# ----------------------------------------------------------------------
# Direct monitor checks
# ----------------------------------------------------------------------
def _bound(monitor):
    obs = Observer(monitors=[monitor])
    obs.attach(des.Environment())
    return obs, monitor


def test_bb_occupancy_monitor_rejects_overflow():
    obs, _ = _bound(BBOccupancyMonitor())
    obs.on_storage_occupancy("bb", 999.0, 1000.0)  # fine
    with pytest.raises(InvariantViolation, match="bb_occupancy"):
        obs.on_storage_occupancy("bb", 1000.1, 1000.0)


def test_event_monotonicity_monitor_rejects_time_travel():
    obs, _ = _bound(EventMonotonicityMonitor())
    obs.on_event_processed(1.0)
    obs.on_event_processed(1.0)  # equal is fine
    with pytest.raises(InvariantViolation, match="event_monotonicity"):
        obs.on_event_processed(0.5)


def test_lease_balance_monitor_accepts_balanced_ledger():
    obs, monitor = _bound(LeaseBalanceMonitor())
    obs.on_bb_lease("granted", 2, 2, 4, "jobA")
    obs.on_bb_lease("queued", 4, 2, 4, "jobB")  # no ledger change
    obs.on_bb_lease("released", 2, 4, 4, "jobA")
    assert _checks(obs, "lease_balance") == 2.0


def test_lease_balance_monitor_rejects_double_release():
    obs, _ = _bound(LeaseBalanceMonitor())
    obs.on_bb_lease("granted", 1, 3, 4, "jobA")
    obs.on_bb_lease("released", 1, 4, 4, "jobA")
    with pytest.raises(InvariantViolation, match="more granules"):
        obs.on_bb_lease("released", 1, 4, 4, "jobA")


def test_lease_balance_monitor_rejects_imbalance():
    obs, _ = _bound(LeaseBalanceMonitor())
    with pytest.raises(InvariantViolation, match="imbalance"):
        obs.on_bb_lease("granted", 1, 4, 4, "jobA")  # free never carved


def test_provisioner_lease_events_balance_through_monitor():
    """The real BBProvisioner drives the lease monitor cleanly."""
    env = des.Environment()
    obs = Observer(monitors=True).attach(env)
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))
    prov = BBProvisioner(platform, granularity=_GRANULE)
    assert prov.total_granules == 4

    def first(env):
        lease = yield prov.request(4 * _GRANULE, job="jobA")
        yield env.timeout(10)
        lease.release()

    def second(env):
        yield env.timeout(1)
        lease = yield prov.request(_GRANULE, job="jobB")  # queues behind A
        lease.release()

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert _violations(obs) == 0
    assert _checks(obs, "lease_balance") >= 3.0
    lease_events = [
        e for e in obs.events if e["event"].startswith("bb_lease_")
    ]
    assert [e["event"] for e in lease_events] == [
        "bb_lease_granted",      # jobA takes the pool
        "bb_lease_queued",       # jobB must wait
        "bb_lease_released",     # jobA done
        "bb_lease_granted",      # jobB granted from the queue
        "bb_lease_released",     # jobB done
    ]


def test_standard_monitors_are_fresh_instances():
    first, second = standard_monitors(), standard_monitors()
    assert {type(m) for m in first} == {type(m) for m in second}
    assert not any(a is b for a in first for b in second)
