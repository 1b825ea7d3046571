"""The flow network against the per-event reference loop, and golden runs.

Two layers of evidence that the change-proportional event loop computes
what the per-event loop it replaced computed:

* a hypothesis suite drives both loops with the same random transfers
  (arrival times, sizes, caps, latencies, zero-byte and loopback flows)
  over small topologies, and compares every flow's completion time to
  1e-9 relative and the order of same-instant completions exactly;
* golden per-task ``(start, end, host)`` schedules, written by the
  per-event loop, of the 22-chromosome 1000Genomes run on Cori (60%
  staged) and one Summit point — which every allocator name except
  ``equal-split`` must reproduce to 1e-9 relative — of the contended
  burst-buffer scenario under each queue policy, and of Figure 7's
  emulated striped 32-pipeline SWarp trial (seed 0) under each
  allocator, with every I/O operation's ``(start, end)`` as well.
  ``PYTHONPATH=src python -m tests.network.test_flownet_differential``
  rewrites them.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import des
from repro.network import (
    FlowNetwork,
    Link,
    allocator_names,
    equal_split_rates,
    max_min_fair_rates,
)
from repro.scenarios import run_contended, run_genomes, run_swarp
from repro.storage import BBMode
from repro.wms.policies import policy_names

from tests.network.oracle import textbook_max_min_rates
from tests.network.oracle_flownet import OracleFlowNetwork

_REL = 1e-9
GOLDEN = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# Random transfers: both loops, flow by flow
# ----------------------------------------------------------------------
@st.composite
def transfer_sets(draw):
    """Small topologies and a list of ``(start, size, link_ids, cap,
    latency)`` transfers over them."""
    n_links = draw(st.integers(min_value=1, max_value=4))
    links = [
        Link(
            f"l{i}",
            bandwidth=draw(st.floats(min_value=1.0, max_value=1e4)),
            latency=draw(st.sampled_from([0.0, 0.0, 0.25])),
            concurrency_penalty=draw(st.sampled_from([0.0, 0.0, 0.05])),
        )
        for i in range(n_links)
    ]
    transfers = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        route = draw(
            st.lists(st.integers(0, n_links - 1), min_size=0, max_size=3, unique=True)
        )
        cap = draw(st.sampled_from([float("inf"), float("inf"), 5.0, 40.0]))
        transfers.append(
            (
                # Repeated start times exercise same-instant admits.
                draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]) | st.floats(0.0, 10.0)),
                draw(st.sampled_from([0.0]) | st.floats(1.0, 5000.0)),
                tuple(route),
                cap,
                draw(st.sampled_from([0.0, 0.0, 0.5])),
            )
        )
    return links, transfers


def _run(net_factory, links, transfers):
    """``(label, completed_at)`` of every flow, in completion order.

    Done events succeed as flows finish and all fire at normal priority,
    so their callbacks run in completion order."""
    env = des.Environment()
    net = net_factory(env)
    finished = []

    def start(i, at, size, route, cap, latency):
        if at > 0:
            yield env.timeout(at)
        net.transfer(
            size, [links[j] for j in route], latency=latency, max_rate=cap,
            label=f"f{i}",
        ).callbacks.append(lambda done: finished.append(done.value))

    for i, transfer in enumerate(transfers):
        env.process(start(i, *transfer))
    env.run()
    assert len(finished) == len(transfers)
    return [(f.label, f.completed_at) for f in finished]


def _assert_same_completions(got, want):
    got_at = dict(got)
    for label, at in want:
        assert math.isclose(got_at[label], at, rel_tol=_REL, abs_tol=_REL), (
            label, got_at[label], at,
        )
    # Flows the reference finishes at one instant finish in the same order.
    position = {label: i for i, (label, _) in enumerate(got)}
    by_instant: dict[float, list[str]] = {}
    for label, at in want:
        by_instant.setdefault(at, []).append(label)
    for labels in by_instant.values():
        assert sorted(labels, key=position.__getitem__) == labels


@pytest.mark.parametrize(
    "name,reference",
    [("max-min", textbook_max_min_rates), ("equal-split", equal_split_rates)],
)
@settings(max_examples=60, deadline=None)
@given(problem=transfer_sets())
# A zero-byte flow whose 0.5 s latency ends at the instant a second
# zero-byte flow starts on a link: both loops finish the delayed one first.
@example(problem=(
    [Link("l0", bandwidth=1.0)],
    [(0.0, 0.0, (), float("inf"), 0.5), (0.5, 0.0, (0,), float("inf"), 0.0)],
))
def test_completion_times_and_order_match_reference_loop(name, reference, problem):
    links, transfers = problem
    want = _run(lambda env: OracleFlowNetwork(env, reference), links, transfers)
    got = _run(lambda env: FlowNetwork(env, allocator=name), links, transfers)
    _assert_same_completions(got, want)


@st.composite
def class_groups(draw):
    """Large same-class groups that stress the per-class service clock.

    Up to 60 transfers over at most two link sets, mostly uncapped so
    that most of them share a class; sizes log-uniform over 1 B..1e12 B,
    so both the byte and the time term of the finish threshold decide
    completions; and admissions staggered over six decades of time, so a
    long-lived class has served many bytes when a small flow joins it.
    """
    n_links = draw(st.integers(min_value=1, max_value=3))
    links = [
        Link(
            f"l{i}",
            bandwidth=10 ** draw(st.floats(min_value=0.0, max_value=6.0)),
            concurrency_penalty=draw(st.sampled_from([0.0, 0.0, 0.05])),
        )
        for i in range(n_links)
    ]
    routes = draw(
        st.lists(
            st.lists(
                st.integers(0, n_links - 1), min_size=1, max_size=2, unique=True
            ).map(tuple),
            min_size=1, max_size=2,
        )
    )
    transfers = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        transfers.append(
            (
                draw(
                    st.sampled_from([0.0, 0.0, 1.0])
                    | st.floats(-3.0, 6.0).map(lambda e: 10 ** e)
                ),
                10 ** draw(st.floats(min_value=0.0, max_value=12.0)),
                draw(st.sampled_from(routes)),
                draw(st.sampled_from([float("inf")] * 4 + [5.0])),
                0.0,
            )
        )
    return links, transfers


@pytest.mark.parametrize(
    "name,reference",
    [("max-min", textbook_max_min_rates), ("equal-split", equal_split_rates)],
)
@settings(max_examples=40, deadline=None)
@given(problem=class_groups())
def test_service_clock_matches_reference_loop(name, reference, problem):
    links, transfers = problem
    want = _run(lambda env: OracleFlowNetwork(env, reference), links, transfers)
    got = _run(lambda env: FlowNetwork(env, allocator=name), links, transfers)
    _assert_same_completions(got, want)


_INF = float("inf")


@st.composite
def alone_then_contact(draw):
    """A flow alone on its links from t=0, then a second flow that may
    reach one of them: in the first one's admission instant (before its
    first solve), while it is in flight, at the instant it drains, or
    later; and sometimes a third, linkless capped flow."""
    links = [
        Link(
            "l0",
            bandwidth=draw(st.floats(min_value=1.0, max_value=1e4)),
            concurrency_penalty=draw(st.sampled_from([0.0, 0.05])),
        ),
        Link("l1", bandwidth=draw(st.floats(min_value=1.0, max_value=1e4))),
    ]
    # ``l1`` has no concurrency penalty, so a route that lists it twice
    # means the same to both loops.
    route = draw(st.sampled_from([(0,), (0, 1), (1, 1), (0, 1, 1)]))
    cap = draw(st.sampled_from([_INF, _INF, 5.0, 40.0]))
    size = draw(st.floats(min_value=1.0, max_value=5000.0))
    alone_for = size / min([cap] + [links[j].bandwidth for j in route])
    contact = draw(
        st.sampled_from([0.0, alone_for / 2, alone_for])
        | st.floats(min_value=0.0, max_value=2 * alone_for)
    )
    transfers = [
        (0.0, size, route, cap, 0.0),
        (
            contact,
            draw(st.sampled_from([0.0]) | st.floats(min_value=1.0, max_value=5000.0)),
            draw(st.sampled_from([(0,), (1,), (1, 0)])),
            draw(st.sampled_from([_INF, 5.0])),
            0.0,
        ),
    ]
    if draw(st.booleans()):
        transfers.append((draw(st.sampled_from([0.0, contact])), 100.0, (), 5.0, 0.0))
    return links, transfers


def _links(*penalties):
    return [
        Link(f"l{i}", bandwidth=100.0 / (i + 1), concurrency_penalty=penalty)
        for i, penalty in enumerate(penalties)
    ]


@settings(max_examples=80, deadline=None)
@given(problem=alone_then_contact())
# Contact in the lone flow's admission instant, before its first solve.
@example(problem=(_links(0.0, 0.0), [
    (0.0, 1000.0, (0,), _INF, 0.0), (0.0, 500.0, (0, 1), _INF, 0.0),
]))
# Contact while it is in flight.
@example(problem=(_links(0.0, 0.0), [
    (0.0, 1000.0, (0,), _INF, 0.0), (4.0, 500.0, (0,), _INF, 0.0),
]))
# Contact at the instant it drains (1000 B at 100 B/s).
@example(problem=(_links(0.0, 0.0), [
    (0.0, 1000.0, (0,), _INF, 0.0), (10.0, 500.0, (0,), _INF, 0.0),
]))
# A route that lists a link twice.
@example(problem=(_links(0.0, 0.0), [
    (0.0, 1000.0, (1, 1), _INF, 0.0), (2.0, 100.0, (1,), _INF, 0.0),
]))
# A link with a concurrency penalty: none alone, some once joined.
@example(problem=(_links(0.05, 0.0), [
    (0.0, 1000.0, (0,), _INF, 0.0), (1.0, 1000.0, (0,), _INF, 0.0),
]))
# A capped flow.
@example(problem=(_links(0.0, 0.0), [
    (0.0, 100.0, (0,), 5.0, 0.0), (3.0, 100.0, (0,), _INF, 0.0),
]))
# A zero-byte flow on the lone flow's link.
@example(problem=(_links(0.0, 0.0), [
    (0.0, 1000.0, (0,), _INF, 0.0), (2.0, 0.0, (0,), _INF, 0.0),
]))
# A linkless capped flow beside them.
@example(problem=(_links(0.0, 0.0), [
    (0.0, 1000.0, (0,), _INF, 0.0), (1.0, 100.0, (0,), _INF, 0.0),
    (0.0, 100.0, (), 5.0, 0.0),
]))
def test_flows_alone_on_their_links_match_reference_loop(problem):
    links, transfers = problem
    want = _run(OracleFlowNetwork, links, transfers)
    nets = []
    got = _run(lambda env: nets.append(FlowNetwork(env)) or nets[0], links, transfers)
    _assert_same_completions(got, want)
    stats = nets[0]._solver.stats
    assert stats.alone >= 1  # f0 starts alone, whatever follows
    assert stats.joined <= stats.alone


@pytest.mark.parametrize(
    "allocator,route,cap,alone",
    [
        ("max-min", (0,), _INF, 1),
        ("max-min", (), 5.0, 0),  # linkless: never priced alone
        ("equal-split", (0,), _INF, 0),  # any other allocator: a solve
    ],
)
def test_which_flows_are_priced_alone(allocator, route, cap, alone):
    nets = []
    _run(
        lambda env: nets.append(FlowNetwork(env, allocator=allocator)) or nets[0],
        [Link("l0", bandwidth=100.0)],
        [(0.0, 100.0, route, cap, 0.0)],
    )
    stats = nets[0]._solver.stats
    assert (stats.alone, stats.joined, stats.solver_calls) == (alone, 0, 1)


@settings(max_examples=60, deadline=None)
@given(
    at=st.sampled_from([0.0, 1.0, 0.1]) | st.floats(min_value=0.0, max_value=1e6),
    size=st.floats(min_value=1e-3, max_value=1e12),
    bandwidth=st.floats(min_value=1e-3, max_value=1e9),
    cap=st.sampled_from([_INF]) | st.floats(min_value=1e-3, max_value=1e9),
)
def test_lone_flow_finishes_at_its_closed_form_time(at, size, bandwidth, cap):
    """A flow alone on its link, admitted at ``t``, finishes exactly at
    ``t + max(0, (t + size / rate) - t)`` with ``rate = min(cap,
    bandwidth)``: the finish time of its one rate, scheduled from ``t``."""
    env = des.Environment()
    net = FlowNetwork(env)
    done = net.transfer(size, [Link("l", bandwidth=bandwidth)], latency=at, max_rate=cap)
    env.run()
    t = 0.0 + at
    rate = min(cap, bandwidth)
    assert done.value.completed_at == t + max(0.0, (t + size / rate) - t)
    assert net._solver.stats.alone == 1


def test_custom_allocator_is_called_for_every_lone_flow():
    """Only the default max-min prices a lone flow without a solve: any
    other allocator is called for it, once, with that flow alone."""
    calls = []

    def counting(flow_links, capacities, flow_caps=None):
        calls.append(len(flow_links))
        return max_min_fair_rates(flow_links, capacities, flow_caps)

    link = Link("l", bandwidth=100.0)
    transfers = [(float(i), 50.0, (0,), _INF, 0.0) for i in range(5)]
    got = _run(lambda env: FlowNetwork(env, allocator=counting), [link], transfers)
    assert calls == [1] * 5
    assert got == _run(FlowNetwork, [link], transfers)
    assert got == [(f"f{i}", i + 0.5) for i in range(5)]


def test_same_instant_completions_follow_admission_not_fid():
    """A flow admitted later (its latency ran out later) finishes after
    one admitted earlier when both drain at the same instant."""
    link = Link("l", bandwidth=100.0)
    transfers = [
        (0.0, 100.0, (0,), float("inf"), 1.0),  # fid 1, admitted at t=1
        (0.5, 150.0, (0,), float("inf"), 0.0),  # fid 2, admitted at t=0.5
    ]
    want = _run(OracleFlowNetwork, [link], transfers)
    assert want == [("f1", 3.0), ("f0", 3.0)]
    assert _run(FlowNetwork, [link], transfers) == want


def test_flow_within_its_threshold_finishes_with_the_due_flow():
    """A flow whose residue is below its finish threshold when another
    flow's wake-up fires finishes at that instant, not at its own."""
    link = Link("l", bandwidth=100.0)
    transfers = [
        (0.0, 1000.0, (0,), float("inf"), 0.0),
        (0.0, 1000.0 + 1e-8, (0,), float("inf"), 0.0),
    ]
    want = _run(OracleFlowNetwork, [link], transfers)
    assert want == [("f0", 20.0), ("f1", 20.0)]
    assert _run(FlowNetwork, [link], transfers) == want


# ----------------------------------------------------------------------
# Golden per-task schedules
# ----------------------------------------------------------------------
def _genomes_cases():
    return {
        "genomes-cori-22chr-60pct": lambda allocator: run_genomes(
            system="cori", input_fraction=0.6, n_chromosomes=22, n_compute=8,
            network_allocator=allocator,
        ),
        "genomes-summit-6chr-50pct": lambda allocator: run_genomes(
            system="summit", input_fraction=0.5, n_chromosomes=6, n_compute=8,
            network_allocator=allocator,
        ),
    }


def _contended_cases():
    # The contended scenario moves no bytes over the network, so it has
    # no allocator to vary; it pins the DES side of the loop (instant-end
    # callbacks, queue policies).
    return {
        f"contended-{policy}": (lambda policy=policy: run_contended(queue_policy=policy))
        for policy in policy_names()
    }


def _swarp_cases():
    # Figure 7's largest striped point: 32 one-core pipelines sharing one
    # striped allocation, so thousands of flows start alone on their
    # links and are joined by another flow later.
    return {
        f"swarp-striped-32pipe-seed0-{allocator}": lambda allocator=allocator: run_swarp(
            system="cori", bb_mode=BBMode.STRIPED, outputs_in_bb=True,
            n_pipelines=32, cores_per_task=1, include_stage_in=True,
            emulated=True, seed=0, network_allocator=allocator,
        )
        for allocator in allocator_names()
    }


def _schedule(result) -> dict[str, list]:
    return {
        name: [rec.start, rec.end, rec.host]
        for name, rec in sorted(result.trace.records.items())
    }


def _io(result) -> list[list]:
    return [
        [op.task, op.file, op.kind, op.start, op.end]
        for op in result.trace.io_operations
    ]


def _assert_matches_golden(case, result):
    with gzip.open(GOLDEN / f"{case}.json.gz", "rt") as fh:
        golden = json.load(fh)
    scale = golden["makespan"]
    assert math.isclose(result.makespan, scale, rel_tol=_REL)
    schedule = _schedule(result)
    assert schedule.keys() == golden["schedule"].keys()
    for task, (start, end, host) in golden["schedule"].items():
        got = schedule[task]
        assert got[2] == host, (task, got, host)
        for have, want in ((got[0], start), (got[1], end)):
            assert math.isclose(have, want, rel_tol=_REL, abs_tol=_REL * scale), (
                task, got, (start, end, host),
            )
    if "io" in golden:
        io = _io(result)
        assert [op[:3] for op in io] == [op[:3] for op in golden["io"]]
        for got, want in zip(io, golden["io"]):
            for have, expected in zip(got[3:], want[3:]):
                assert math.isclose(
                    have, expected, rel_tol=_REL, abs_tol=_REL * scale
                ), (got, want)


MAX_MIN_NAMES = [name for name in allocator_names() if name != "equal-split"]


@pytest.mark.parametrize("allocator", MAX_MIN_NAMES)
@pytest.mark.parametrize("case", sorted(_genomes_cases()))
def test_golden_genomes_schedules(case, allocator):
    _assert_matches_golden(case, _genomes_cases()[case](allocator))


@pytest.mark.parametrize("case", sorted(_contended_cases()))
def test_golden_contended_schedules(case):
    _assert_matches_golden(case, _contended_cases()[case]())


@pytest.mark.parametrize("case", sorted(_swarp_cases()))
def test_golden_swarp_schedules(case):
    _assert_matches_golden(case, _swarp_cases()[case]())


def write_golden() -> None:
    """Rewrite the golden files (genomes from the default allocator)."""
    runs = {case: lambda run=run: run(None) for case, run in _genomes_cases().items()}
    runs.update(_contended_cases())
    swarp = _swarp_cases()
    runs.update(swarp)
    for case, run in runs.items():
        result = run()
        doc = {"case": case, "makespan": result.makespan, "schedule": _schedule(result)}
        if case in swarp:
            doc["io"] = _io(result)
        with gzip.open(GOLDEN / f"{case}.json.gz", "wt") as fh:
            json.dump(doc, fh, sort_keys=True)


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    write_golden()
