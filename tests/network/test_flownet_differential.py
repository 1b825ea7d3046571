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
  ``equal-split`` must reproduce to 1e-9 relative — and of the contended
  burst-buffer scenario under each queue policy.  ``PYTHONPATH=src
  python -m tests.network.test_flownet_differential`` rewrites them.
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
from repro.network import FlowNetwork, Link, allocator_names, equal_split_rates
from repro.scenarios import run_contended, run_genomes
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


def _schedule(result) -> dict[str, list]:
    return {
        name: [rec.start, rec.end, rec.host]
        for name, rec in sorted(result.trace.records.items())
    }


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


MAX_MIN_NAMES = [name for name in allocator_names() if name != "equal-split"]


@pytest.mark.parametrize("allocator", MAX_MIN_NAMES)
@pytest.mark.parametrize("case", sorted(_genomes_cases()))
def test_golden_genomes_schedules(case, allocator):
    _assert_matches_golden(case, _genomes_cases()[case](allocator))


@pytest.mark.parametrize("case", sorted(_contended_cases()))
def test_golden_contended_schedules(case):
    _assert_matches_golden(case, _contended_cases()[case]())


def write_golden() -> None:
    """Rewrite the golden files from the current default allocator."""
    runs = {case: lambda run=run: run(None) for case, run in _genomes_cases().items()}
    runs.update(_contended_cases())
    for case, run in runs.items():
        result = run()
        doc = {"case": case, "makespan": result.makespan, "schedule": _schedule(result)}
        with gzip.open(GOLDEN / f"{case}.json.gz", "wt") as fh:
            json.dump(doc, fh, sort_keys=True)


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    write_golden()
