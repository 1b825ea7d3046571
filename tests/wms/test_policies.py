"""Tests for the queue-policy registry, the policies, and the plan
coordinator's joint co-reservation contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import des
from repro.compute import AllocationError, ComputeService, CoreAllocator
from repro.obs import Observer
from repro.platform import Platform
from repro.platform.presets import cori_spec
from repro.scenarios import contended_jobs, run_contended
from repro.storage.provisioning import BBProvisioner
from repro.wms.policies import (
    DEFAULT_POLICY,
    UNKNOWN,
    ConservativeBackfillPolicy,
    EasyBackfillPolicy,
    FifoPolicy,
    PlanCoordinator,
    QueuePolicy,
    QueuedRequest,
    RunningGrant,
    _POLICIES,
    policy_names,
    resolve_policy,
)

GRANULARITY = 1.6e12  # 4 granules per 6.4 TB Cori BB node


def _queue(*amounts_estimates):
    env = des.Environment()
    return [
        QueuedRequest(amount=a, event=env.event(), tag=f"r{i}", estimate=e)
        for i, (a, e) in enumerate(amounts_estimates)
    ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_policies_registered():
    assert policy_names() == [
        "conservative-backfill", "easy-backfill", "fifo", "plan",
    ]
    assert DEFAULT_POLICY == "fifo"


def test_resolve_none_is_default():
    assert isinstance(resolve_policy(None), FifoPolicy)


def test_resolve_passthrough_and_unknown():
    policy = EasyBackfillPolicy()
    assert resolve_policy(policy) is policy
    with pytest.raises(ValueError, match="unknown queue policy"):
        resolve_policy("shortest-job-first")


def test_policy_table_rejects_rebinding():
    policy = resolve_policy("fifo")
    with pytest.raises(TypeError):
        _POLICIES["fifo"] = FifoPolicy()  # the table is constant
    assert resolve_policy("fifo") is policy


# ----------------------------------------------------------------------
# select(): per-policy unit behaviour
# ----------------------------------------------------------------------
def test_fifo_stops_at_first_misfit():
    queue = _queue((2, 1.0), (8, 1.0), (1, 1.0))
    assert FifoPolicy().select(queue, 4, 0.0, []) == [0]


def test_easy_backfills_small_job_that_finishes_before_shadow():
    # 4 units total, 3 running until t=10; head wants 4 (shadow = 10).
    queue = _queue((4, 5.0), (1, 2.0))
    running = [RunningGrant(3, deadline=10.0)]
    assert EasyBackfillPolicy().select(queue, 1, 0.0, running) == [1]


def test_easy_respects_head_reservation():
    # The backfill candidate would finish at 20 > shadow 10 and needs
    # more than the extra units (0): it must wait.
    queue = _queue((4, 5.0), (1, 20.0))
    running = [RunningGrant(3, deadline=10.0)]
    assert EasyBackfillPolicy().select(queue, 1, 0.0, running) == []


def test_easy_unknown_estimate_only_extra_units():
    # Shadow 10 with 1 extra unit: the no-estimate job fits the extra.
    queue = _queue((3, 5.0), (1, UNKNOWN))
    running = [RunningGrant(3, deadline=10.0)]
    assert EasyBackfillPolicy().select(queue, 1, 0.0, running) == [1]
    # ...but a no-estimate job exceeding the extra units must wait
    # (head wants 4 of the 5 available at the shadow: 1 extra unit).
    queue = _queue((4, 5.0), (2, UNKNOWN))
    assert EasyBackfillPolicy().select(queue, 2, 0.0, running) == []


def test_easy_unknown_shadow_blocks_estimate_backfill():
    # The only release the head needs has no deadline, so its shadow is
    # unknown: a short job cannot "finish before" it, and with no extra
    # units at an unknown shadow nothing may backfill.
    queue = _queue((4, 5.0), (1, 5.0))
    running = [RunningGrant(2, deadline=UNKNOWN)]
    assert EasyBackfillPolicy().select(queue, 2, 0.0, running) == []


def test_easy_counts_every_release_at_a_shared_deadline():
    # Head of 3, nothing free, two grants released together at t=5:
    # every unit they free is there at the shadow time.
    head = _queue((3, 1.0))[0]
    reserve = EasyBackfillPolicy._head_reservation
    releases = [RunningGrant(4, deadline=5.0), RunningGrant(2, deadline=5.0)]
    assert reserve(head, 0, 0.0, releases) == (5.0, 3)
    releases = [RunningGrant(3, deadline=5.0), RunningGrant(4, deadline=5.0)]
    assert reserve(head, 0, 0.0, releases) == (5.0, 4)


def test_easy_reservation_counts_the_prefix_granted_now():
    # The 2-unit head is granted now and releases at t=100, which is
    # when the 6-unit request can start: the 1000 s request that fits
    # now would delay it, so it must wait.
    queue = _queue((2, 100.0), (6, 10.0), (2, 1000.0))
    running = [RunningGrant(2, deadline=50.0)]
    assert EasyBackfillPolicy().select(queue, 4, 0.0, running) == [0]


def test_conservative_backfills_without_delaying_anyone():
    # Head wants 4 at t=10; the 1-unit/2s job slots in front harmlessly.
    queue = _queue((4, 5.0), (1, 2.0))
    running = [RunningGrant(3, deadline=10.0)]
    assert ConservativeBackfillPolicy().select(queue, 1, 0.0, running) == [1]


def test_conservative_refuses_delaying_backfill():
    # Granting the 10s job would push the head past its t=2 projection.
    queue = _queue((2, 1.0), (1, 10.0))
    running = [RunningGrant(1, deadline=2.0)]
    assert ConservativeBackfillPolicy().select(queue, 1, 0.0, running) == []


def test_policies_grant_whole_queue_when_everything_fits():
    queue = _queue((1, 1.0), (2, UNKNOWN), (1, 3.0))
    for name in policy_names():
        assert resolve_policy(name).select(queue, 8, 0.0, []) == [0, 1, 2]


# ----------------------------------------------------------------------
# select(): properties
# ----------------------------------------------------------------------
request_lists = st.lists(
    st.tuples(st.integers(1, 8), st.floats(0.5, 50.0)), min_size=0, max_size=6
)
running_lists = st.lists(
    st.tuples(st.integers(1, 8), st.floats(0.5, 50.0)), min_size=0, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(requests=request_lists, running=running_lists, free=st.integers(0, 12))
def test_selections_are_sound_and_fifo_compatible(requests, running, free):
    """Every policy returns ascending in-range indices fitting ``free``,
    and every policy grants at least FIFO's prefix (backfilling only
    ever adds grants, never removes the ones FIFO would make now)."""
    queue = _queue(*requests)
    grants = [RunningGrant(a, deadline=d) for a, d in running]
    fifo_picks = FifoPolicy().select(queue, free, 0.0, grants)
    for name in policy_names():
        picks = resolve_policy(name).select(queue, free, 0.0, grants)
        assert picks == sorted(set(picks))
        assert all(0 <= i < len(queue) for i in picks)
        assert sum(queue[i].amount for i in picks) <= free
        assert set(fifo_picks) <= set(picks)


@settings(max_examples=150, deadline=None)
@given(requests=request_lists, running=running_lists, free=st.integers(0, 12))
def test_conservative_never_delays_past_fifo_projection(
    requests, running, free
):
    """With exact estimates, conservative backfilling leaves every
    unselected request's projected start no later than strict FIFO's."""
    queue = _queue(*requests)
    grants = [RunningGrant(a, deadline=d) for a, d in running]
    policy = ConservativeBackfillPolicy()
    fifo_projection = policy._projected_starts(queue, free, 0.0, grants)
    picks = policy.select(queue, free, 0.0, grants)
    rest = [r for i, r in enumerate(queue) if i not in picks]
    rest_baseline = [
        s for i, s in enumerate(fifo_projection) if i not in picks
    ]
    granted_now = grants + [
        RunningGrant(queue[i].amount, queue[i].estimate) for i in picks
    ]
    free_after = free - sum(queue[i].amount for i in picks)
    after = policy._projected_starts(rest, free_after, 0.0, granted_now)
    assert all(a <= b for a, b in zip(after, rest_baseline))


@settings(max_examples=100, deadline=None)
@given(requests=request_lists, running=running_lists, free=st.integers(0, 12))
def test_select_is_deterministic(requests, running, free):
    queue = _queue(*requests)
    grants = [RunningGrant(a, deadline=d) for a, d in running]
    for name in policy_names():
        policy = resolve_policy(name)
        first = policy.select(queue, free, 0.0, grants)
        assert all(
            policy.select(queue, free, 0.0, grants) == first for _ in range(3)
        )


# ----------------------------------------------------------------------
# Allocators honour the configured policy
# ----------------------------------------------------------------------
def test_core_allocator_backfills_with_estimates():
    env = des.Environment()
    alloc = CoreAllocator(env, 4, policy="easy-backfill")
    order = []

    def job(name, cores, duration, arrival):
        yield env.timeout(arrival)
        a = yield alloc.request(cores, task=name, estimate=duration)
        order.append((name, env.now))
        yield env.timeout(duration)
        a.release()

    env.process(job("hold", 3, 10.0, 0.0))
    env.process(job("big", 4, 5.0, 0.1))    # must wait for t=10
    env.process(job("tiny", 1, 2.0, 0.2))   # backfills at t=0.2
    env.run()
    assert order == [("hold", 0.0), ("tiny", 0.2), ("big", 10.0)]


def test_core_allocator_fifo_still_blocks_backfill():
    env = des.Environment()
    alloc = CoreAllocator(env, 4)  # default fifo
    order = []

    def job(name, cores, duration, arrival):
        yield env.timeout(arrival)
        a = yield alloc.request(cores, task=name, estimate=duration)
        order.append((name, env.now))
        yield env.timeout(duration)
        a.release()

    env.process(job("hold", 3, 10.0, 0.0))
    env.process(job("big", 4, 5.0, 0.1))
    env.process(job("tiny", 1, 2.0, 0.2))
    env.run()
    assert order == [("hold", 0.0), ("big", 10.0), ("tiny", 15.0)]


def test_provisioner_backfills_with_estimates():
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))
    prov = BBProvisioner(
        platform, granularity=GRANULARITY, policy="easy-backfill"
    )
    order = []

    def job(name, granules, duration, arrival):
        yield env.timeout(arrival)
        lease = yield prov.request(
            granules * GRANULARITY, job=name, estimate=duration
        )
        order.append((name, env.now))
        yield env.timeout(duration)
        lease.release()

    env.process(job("hold", 6, 10.0, 0.0))
    env.process(job("big", 8, 5.0, 0.1))
    env.process(job("tiny", 2, 2.0, 0.2))
    env.run()
    assert order == [("hold", 0.0), ("tiny", 0.2), ("big", 10.0)]


def test_allocator_over_release_raises_even_under_O():
    env = des.Environment()
    alloc = CoreAllocator(env, 4)
    with pytest.raises(AllocationError, match="double release"):
        alloc._release(1)


# ----------------------------------------------------------------------
# PlanCoordinator: joint co-reservation
# ----------------------------------------------------------------------
@pytest.fixture
def plan_setup():
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=2, n_bb_nodes=2))
    compute = ComputeService(platform, ["cn0", "cn1"], queue_policy="fifo")
    prov = BBProvisioner(platform, granularity=GRANULARITY, policy="fifo")
    return env, compute, prov, PlanCoordinator(compute, prov)


def test_plan_grants_both_or_neither(plan_setup):
    env, compute, prov, coord = plan_setup
    log = []

    def job(name, host, cores, granules, duration, arrival):
        yield env.timeout(arrival)
        r = yield coord.request(
            host, cores, granules * GRANULARITY,
            job=name, estimate=duration,
        )
        log.append(
            (name, env.now, r.allocation is not None, r.lease is not None)
        )
        yield env.timeout(duration)
        r.release()

    env.process(job("a", "cn0", 16, 6, 2.0, 0.0))
    env.process(job("b", "cn0", 16, 6, 5.0, 0.5))   # both halves busy
    env.process(job("c", "cn1", 4, 2, 1.0, 0.6))    # free cores + granules
    env.run()
    assert log == [
        ("a", 0.0, True, True),
        ("c", 0.6, True, True),
        ("b", 2.0, True, True),
    ]
    assert compute.allocator("cn0").free_cores == 32
    assert prov.free_granules == prov.total_granules


def test_plan_never_holds_one_resource_while_waiting(plan_setup):
    """While a joint request waits, it must hold *neither* resource —
    the hold-and-wait the coordinator exists to eliminate."""
    env, compute, prov, coord = plan_setup
    snapshots = []

    def hog(env):
        r = yield coord.request("cn0", 32, 8 * GRANULARITY, job="hog",
                                estimate=5.0)
        yield env.timeout(5.0)
        r.release()

    def blocked(env):
        yield env.timeout(1.0)
        event = coord.request("cn0", 4, 2 * GRANULARITY, job="late",
                              estimate=1.0)
        # Request is pending (hog holds everything until t=5): the
        # waiting job must have claimed nothing.
        snapshots.append((compute.allocator("cn0").free_cores,
                          prov.free_granules))
        yield event

    env.process(hog(env))
    env.process(blocked(env))
    env.run()
    assert snapshots == [(0, 0)]


@settings(max_examples=40, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.integers(0, 1),     # host index
            st.integers(1, 32),    # cores
            st.integers(1, 8),     # granules
            st.floats(0.5, 10.0),  # duration
        ),
        min_size=1,
        max_size=6,
    )
)
def test_plan_atomicity_property(jobs):
    """Whatever the job mix, cores and granules are claimed and
    restored in lockstep: free counts return to full, and every grant
    instant claims both halves."""
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=2, n_bb_nodes=2))
    compute = ComputeService(platform, ["cn0", "cn1"], queue_policy="fifo")
    prov = BBProvisioner(platform, granularity=GRANULARITY, policy="fifo")
    coord = PlanCoordinator(compute, prov)
    grants = []

    def job(i, host_i, cores, granules, duration):
        yield env.timeout(0.25 * i)
        r = yield coord.request(
            f"cn{host_i}", cores, granules * GRANULARITY,
            job=f"j{i}", estimate=duration,
        )
        grants.append((r.allocation.cores == cores,
                       r.lease.allocation.granules == granules))
        yield env.timeout(duration)
        r.release()

    for i, (host_i, cores, granules, duration) in enumerate(jobs):
        env.process(job(i, host_i, cores, granules, duration))
    env.run()
    assert len(grants) == len(jobs)
    assert all(c and g for c, g in grants)
    assert compute.allocator("cn0").free_cores == 32
    assert compute.allocator("cn1").free_cores == 32
    assert prov.free_granules == prov.total_granules


# ----------------------------------------------------------------------
# Contended scenario: the policies actually move the needle
# ----------------------------------------------------------------------
def _trace_signature(result):
    return (
        result.trace.io_operations,
        sorted(
            (r.name, r.host, r.cores, r.ready, r.start, r.end)
            for r in result.trace.records.values()
        ),
    )


@pytest.mark.parametrize("policy", ["fifo", "easy-backfill",
                                    "conservative-backfill", "plan"])
def test_contended_run_is_deterministic(policy):
    first = _trace_signature(run_contended(queue_policy=policy))
    second = _trace_signature(run_contended(queue_policy=policy))
    assert first == second


def test_backfill_and_plan_beat_fifo_on_bb_waits():
    """The acceptance experiment: backfill/plan cut the critical-path
    BB-capacity wait versus FIFO while the per-task work is unchanged."""
    from repro.profile import build_profile

    attribution = {}
    durations = {}
    for policy in ("fifo", "easy-backfill", "plan"):
        observer = Observer()
        result = run_contended(queue_policy=policy, observer=observer)
        profile = build_profile(result.trace, observer=observer)
        attribution[policy] = profile.attribution
        durations[policy] = sorted(
            (r.name, r.duration) for r in result.trace.records.values()
        )
    fifo_bb = attribution["fifo"].get("wait:bb_capacity", 0.0)
    easy_bb = attribution["easy-backfill"].get("wait:bb_capacity", 0.0)
    plan_bb = attribution["plan"].get("wait:bb_capacity", 0.0)
    assert fifo_bb > 0
    assert easy_bb < fifo_bb
    assert plan_bb < fifo_bb
    # Same work, different order: per-task durations are identical.
    assert durations["easy-backfill"] == durations["fifo"]
    assert durations["plan"] == durations["fifo"]


@pytest.mark.parametrize("policy", ["fifo", "easy-backfill",
                                    "conservative-backfill", "plan"])
def test_contended_invariant_monitors_stay_clean(policy):
    observer = Observer(monitors=True)
    run_contended(queue_policy=policy, observer=observer)
    counter = observer.registry.counters.get("invariants.violations")
    assert counter is None or counter.value == 0
    # The lease ledger was actually exercised, not silently skipped.
    checks = observer.registry.counter("invariants.lease_balance.checks")
    assert checks.value > 0


def test_contended_jobs_are_stable():
    jobs = contended_jobs(n_jobs=4, n_compute=2)
    assert [j.host for j in jobs] == ["cn0", "cn1", "cn0", "cn1"]
    assert [j.granules for j in jobs] == [6, 4, 2, 2]
    with pytest.raises(ValueError):
        contended_jobs(n_jobs=0)


def test_unknown_policy_rejected_by_scenario():
    with pytest.raises(ValueError, match="unknown queue policy"):
        run_contended(queue_policy="sjf")


# ----------------------------------------------------------------------
# fifo stays the default, byte-identical to the unconfigured path
# ----------------------------------------------------------------------
def _sim_signature(observer, trace):
    return (
        trace.io_operations,
        sorted(
            (r.name, r.host, r.cores, r.ready, r.start, r.end)
            for r in trace.records.values()
        ),
        [(w.task, w.cause.value, w.start, w.end) for w in observer.waits],
        observer.events,
    )


def test_explicit_fifo_matches_default_simulator_run():
    """A config naming "fifo" must reproduce the unconfigured run
    exactly — same trace, same waits, same structured event stream
    (no ``queue_policy`` provenance event pollutes default runs)."""
    from repro.platform.presets import cori_spec as spec
    from repro.api import simulate
    from repro.config import Config
    from repro.workflow.swarp import make_swarp

    obs_default = Observer()
    default = simulate(spec(), make_swarp(), observer=obs_default).trace
    obs_fifo = Observer()
    fifo = simulate(
        spec(), make_swarp(),
        config=Config(queue_policy="fifo"), observer=obs_fifo,
    ).trace
    assert _sim_signature(obs_default, default) == _sim_signature(
        obs_fifo, fifo
    )
    assert not any(
        e.get("event") == "queue_policy" for e in obs_default.events
    )


def test_non_default_policy_emits_provenance_event():
    from repro.platform.presets import cori_spec as spec
    from repro.api import simulate
    from repro.config import Config
    from repro.workflow.swarp import make_swarp

    observer = Observer()
    simulate(
        spec(), make_swarp(),
        config=Config(queue_policy="easy-backfill"), observer=observer,
    )
    stamps = [
        e for e in observer.events if e.get("event") == "queue_policy"
    ]
    assert len(stamps) == 1
    assert stamps[0]["fields"]["policy"] == "easy-backfill"


def test_simulator_config_rejects_unknown_policy():
    from repro.config import Config

    with pytest.raises(ValueError, match="unknown queue policy"):
        Config(queue_policy="sjf")
