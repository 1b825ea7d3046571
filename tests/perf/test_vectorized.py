"""Grouped filling against the oracle.

The production solver fills identical-constraint classes as weighted
entries (see ``docs/PERF.md``).  Its contract:

* same validation errors as the textbook solver;
* **bit-identical** rates to the textbook solver, whether the flows are
  passed one by one or grouped into weighted classes, across capacities
  spanning 1e-12..1e6, flow caps, single-flow links, and arbitrary
  admit/drain interleavings;
* the ``max-min`` allocator name resolves to the production solver,
  drives the same engine, and leaves end-to-end runs bit-identical (two
  runs, naming the solver or passing it, and a serial-vs-parallel sweep
  must agree exactly).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import max_min_fair_rates, resolve_allocator
from repro.network.components import ComponentSolver, static_capacity

from tests.network.oracle import textbook_max_min_rates

_REL = 1e-9


def close(a: float, b: float) -> bool:
    # Relative-only: capacities go down to 1e-12, where an absolute
    # tolerance would mask real disagreement.
    return a == b or math.isclose(a, b, rel_tol=_REL, abs_tol=0.0)


def changed_rates(classes) -> dict:
    """``{fid: rate}`` for every member of the classes a solve returned."""
    return {fid: cls.rate for cls in classes for fid in cls.members}


def make_engine(capacities):
    return ComponentSolver(
        static_capacity(capacities), resolve_allocator("max-min")
    )


vectorized = resolve_allocator("max-min")


# ----------------------------------------------------------------------
# Stateless allocator: validation parity with the oracle
# ----------------------------------------------------------------------
def test_validation_matches_oracle():
    with pytest.raises(ValueError, match="non-positive capacity"):
        vectorized([["l"]], {"l": 0.0})
    with pytest.raises(ValueError, match="unknown link"):
        vectorized([["nope"]], {"l": 1.0})
    with pytest.raises(ValueError, match="flow_caps length"):
        vectorized([["l"]], {"l": 1.0}, flow_caps=[1.0, 2.0])
    with pytest.raises(ValueError, match="no links and no cap"):
        vectorized([[]], {})
    with pytest.raises(ValueError, match="weights length"):
        max_min_fair_rates([["l"]], {"l": 1.0}, weights=[1, 2])


def test_empty_problem():
    assert vectorized([], {}) == []
    assert vectorized([], {"l": 5.0}) == []


def test_fixed_cases_match_oracle():
    cases = [
        # (flow_links, capacities, flow_caps)
        ([["a"]], {"a": 100.0}, None),                       # single-flow link
        ([["a"], ["a"]], {"a": 100.0}, None),                # equal split
        ([["a"], ["a", "b"]], {"a": 100.0, "b": 20.0}, None),
        ([["a"], ["a"], ["b"]], {"a": 90.0, "b": 50.0}, [10.0, 1e18, 1e18]),
        ([[], ["a"]], {"a": 7.0}, [3.0, 1e18]),              # linkless capped
        ([["a"]], {"a": 1e-12}, None),                       # tiny capacity
        ([["a"], ["a"]], {"a": 1e6}, None),                  # huge capacity
        ([["a", "b"], ["b", "c"], ["a", "c"]],
         {"a": 1e-12, "b": 1.0, "c": 1e6}, None),            # mixed scales
    ]
    for flow_links, capacities, caps in cases:
        expected = textbook_max_min_rates(flow_links, capacities, caps)
        got = vectorized(flow_links, capacities, caps)
        assert got == expected, (flow_links, capacities, caps, got, expected)


def test_identical_constraint_flows_share_one_rate():
    # Ten flows with the same link set and cap form one class: their
    # rates are not merely close but the same float, and one weighted
    # entry gives that float too.
    rates = vectorized([["a", "b"]] * 10, {"a": 100.0, "b": 33.0})
    assert len(set(rates)) == 1
    assert max_min_fair_rates(
        [["a", "b"]], {"a": 100.0, "b": 33.0}, weights=[10]
    ) == rates[:1]


def test_wide_problem_matches_oracle():
    # 40 links and 80 flows: many filling rounds, every one of them must
    # match the textbook solver's floats.
    links = [f"l{i}" for i in range(40)]
    capacities = {link: 10.0 + i for i, link in enumerate(links)}
    flow_links = [[links[i % 40], links[(i * 7 + 1) % 40]] for i in range(80)]
    expected = textbook_max_min_rates(flow_links, capacities)
    assert vectorized(flow_links, capacities) == expected


# ----------------------------------------------------------------------
# Stateful engine under the "max-min" name
# ----------------------------------------------------------------------
def test_admit_drain_bookkeeping():
    engine = make_engine({"l": 100.0})
    engine.admit(1, ["l"])
    engine.admit(2, ["l"])
    assert 1 in engine and len(engine) == 2
    assert engine.dirty
    engine.solve()
    assert not engine.dirty
    engine.drain(1)
    assert 1 not in engine and engine.dirty
    assert changed_rates(engine.solve()) == {2: 100.0}


def test_admit_duplicate_fid_rejected():
    engine = make_engine({"l": 100.0})
    engine.admit(1, ["l"])
    with pytest.raises(ValueError, match="already admitted"):
        engine.admit(1, ["l"])


def test_drain_unknown_fid_rejected():
    engine = make_engine({"l": 100.0})
    with pytest.raises(KeyError, match="not admitted"):
        engine.drain(99)


def test_linkless_uncapped_flow_rejected():
    engine = make_engine({})
    with pytest.raises(ValueError, match="no links and no cap"):
        engine.admit(1, [])


def test_linkless_capped_flow_gets_its_cap():
    engine = make_engine({})
    engine.admit(1, [], cap=42.0)
    assert changed_rates(engine.solve()) == {1: 42.0}


def test_solve_without_dirt_is_a_noop():
    engine = make_engine({"l": 100.0})
    engine.admit(1, ["l"])
    engine.solve()
    assert engine.solve() == []
    assert engine.stats.solver_calls == 1


def test_group_granularity_stats():
    # 8 identical flows are one class: a solve touches 1 link but
    # reports 8 flows solved.
    engine = make_engine({"l": 100.0})
    for fid in range(8):
        engine.admit(fid, ["l"])
    changed = changed_rates(engine.solve())
    assert len(changed) == 8
    assert engine.stats.flows_solved == 8
    assert engine.stats.links_touched == 1
    assert all(rate == 12.5 for rate in changed.values())


def test_untouched_component_is_not_recomputed():
    engine = make_engine({"a": 100.0, "b": 60.0})
    engine.admit(1, ["a"])
    engine.admit(2, ["a"])
    engine.admit(3, ["b"])
    engine.solve()
    calls = engine.stats.solver_calls

    engine.admit(4, ["b"])
    changed = changed_rates(engine.solve())
    assert set(changed) == {3, 4}
    assert engine.stats.solver_calls == calls + 1
    assert engine.rate(1) == 50.0 and engine.rate(2) == 50.0
    assert changed[3] == 30.0 and changed[4] == 30.0


# ----------------------------------------------------------------------
# Randomized differential suite
# ----------------------------------------------------------------------
LINKS = ("l0", "l1", "l2", "l3", "l4", "l5")


@st.composite
def flow_graphs(draw):
    """Random problems spanning capacities 1e-12..1e6."""
    n_links = draw(st.integers(min_value=1, max_value=len(LINKS)))
    links = LINKS[:n_links]
    capacities = {
        link: draw(st.floats(min_value=1e-12, max_value=1e6, allow_nan=False))
        for link in links
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flow_links = [
        draw(st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True))
        for _ in range(n_flows)
    ]
    caps = [
        draw(st.one_of(st.just(float("inf")), st.floats(min_value=1e-12, max_value=1e5)))
        for _ in range(n_flows)
    ]
    return flow_links, capacities, caps


@settings(max_examples=150, deadline=None)
@given(problem=flow_graphs())
def test_three_way_differential_random_graphs(problem):
    """Oracle, the ``max-min`` name and the solver itself: the same floats."""
    flow_links, capacities, caps = problem
    oracle = textbook_max_min_rates(flow_links, capacities, caps)
    assert max_min_fair_rates(flow_links, capacities, caps) == oracle
    assert vectorized(flow_links, capacities, caps) == oracle


@settings(max_examples=150, deadline=None)
@given(problem=flow_graphs(), weights=st.lists(st.integers(1, 5), min_size=8, max_size=8))
def test_weighted_classes_match_expanded_flows(problem, weights):
    """A class of w flows as one weighted entry == w separate flows."""
    flow_links, capacities, caps = problem
    weights = weights[: len(flow_links)]
    expanded_links = [links for links, w in zip(flow_links, weights) for _ in range(w)]
    expanded_caps = [cap for cap, w in zip(caps, weights) for _ in range(w)]
    oracle = textbook_max_min_rates(expanded_links, capacities, expanded_caps)
    grouped = max_min_fair_rates(flow_links, capacities, caps, weights)
    assert [rate for rate, w in zip(grouped, weights) for _ in range(w)] == oracle


@st.composite
def admit_drain_sequences(draw):
    """A random interleaving of admits and drains over random links."""
    _, capacities, _ = draw(flow_graphs())
    links = sorted(capacities)
    n_ops = draw(st.integers(min_value=1, max_value=24))
    ops = []
    live: list[int] = []
    next_fid = 0
    for _ in range(n_ops):
        if live and draw(st.booleans()):
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append(("drain", victim, None, None))
        else:
            flinks = draw(
                st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True)
            )
            cap = draw(
                st.one_of(
                    st.just(float("inf")), st.floats(min_value=1e-12, max_value=1e5)
                )
            )
            ops.append(("admit", next_fid, flinks, cap))
            live.append(next_fid)
            next_fid += 1
    return capacities, ops


@settings(max_examples=100, deadline=None)
@given(problem=admit_drain_sequences())
def test_engine_differential_admit_drain(problem):
    """After every op, the engine equals a from-scratch global solve."""
    capacities, ops = problem
    engine = make_engine(capacities)
    reference: dict[int, tuple] = {}
    reference_caps: dict[int, float] = {}
    for op, fid, links, cap in ops:
        if op == "admit":
            engine.admit(fid, links, cap)
            reference[fid] = tuple(links)
            reference_caps[fid] = cap
        else:
            engine.drain(fid)
            del reference[fid]
            del reference_caps[fid]
        engine.solve()
        if not reference:
            assert engine.rates == {}
            continue
        fids = list(reference)
        expected = textbook_max_min_rates(
            [reference[f] for f in fids],
            capacities,
            [reference_caps[f] for f in fids],
        )
        for f, e in zip(fids, expected):
            assert close(engine.rate(f), e), (f, engine.rate(f), e)


def test_zero_byte_transfer_completes_under_vectorized():
    from repro.des import Environment
    from repro.network import FlowNetwork, Link

    env = Environment()
    net = FlowNetwork(env, allocator="max-min")
    done = net.transfer(0.0, [Link("l", bandwidth=100.0)])
    env.run(until=done)
    assert done.processed


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------
def _tiny_genomes(allocator):
    from repro.scenarios import run_genomes

    return run_genomes(
        system="cori",
        input_fraction=0.5,
        n_chromosomes=2,
        n_compute=2,
        network_allocator=allocator,
    ).makespan


def test_vectorized_run_is_deterministic_and_matches_other_allocators():
    first = _tiny_genomes("max-min")
    second = _tiny_genomes("max-min")
    assert first == second  # bit-identical event stream across runs
    assert first == _tiny_genomes(max_min_fair_rates)


def test_vectorized_sweep_identical_serial_and_parallel():
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec.cartesian(
        "fig13",
        "repro.experiments.fig13:compute_point",
        axes={"fraction": [0.0, 0.5, 1.0]},
        constants={
            "system": "cori",
            "n_chromosomes": 2,
            "network_allocator": "max-min",
        },
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=4)
    assert serial.values() == parallel.values()
    assert len(serial.values()) == 3
