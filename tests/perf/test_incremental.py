"""The component solver against the textbook oracle.

The contract (see ``docs/PERF.md``):

* per re-solved component, rates are **bit-identical** to running the
  textbook solver on that component alone;
* against the *whole-graph* oracle, rates are bit-identical whenever
  the graph is one connected component, and equal to within 1e-9
  relative when several components exist (filling them together splits
  the increments into more, smaller steps);
* the ``max-min`` allocator name resolves to the production solver and
  drives the same engine.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import equal_split_rates, resolve_allocator
from repro.network.components import ComponentSolver, static_capacity

from tests.network.oracle import textbook_max_min_rates

_REL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL, abs_tol=1e-12)


def changed_rates(classes) -> dict:
    """``{fid: rate}`` for every member of the classes a solve returned."""
    return {fid: cls.rate for cls in classes for fid in cls.members}


def make_engine(capacities, allocator="max-min"):
    return ComponentSolver(
        static_capacity(capacities), resolve_allocator(allocator)
    )


# ----------------------------------------------------------------------
# Engine bookkeeping
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


def test_solve_reports_only_changed_rates():
    # A capped flow joining a class whose rate is pinned at the cap: the
    # class's rate does not change, so no class is reported, and the
    # newcomer moves at the class's rate.
    engine = make_engine({"l": 100.0})
    engine.admit(1, ["l"], cap=10.0)
    engine.admit(2, ["l"], cap=10.0)
    assert changed_rates(engine.solve()) == {1: 10.0, 2: 10.0}
    engine.admit(3, ["l"], cap=10.0)
    assert engine.solve() == []
    assert engine.rate(3) == 10.0


def test_custom_allocator_sees_one_class_per_flow():
    engine = make_engine({"a": 90.0, "b": 30.0}, allocator=equal_split_rates)
    engine.admit(1, ["a"])
    engine.admit(2, ["a"])
    engine.admit(3, ["a", "b"])
    assert changed_rates(engine.solve()) == {1: 30.0, 2: 30.0, 3: 30.0}
    assert engine.stats.flows_solved == 3


# ----------------------------------------------------------------------
# Component isolation
# ----------------------------------------------------------------------
def test_untouched_component_is_not_recomputed():
    capacities = {"a": 100.0, "b": 60.0}
    engine = make_engine(capacities)
    engine.admit(1, ["a"])
    engine.admit(2, ["a"])
    engine.admit(3, ["b"])
    engine.solve()
    calls = engine.stats.solver_calls

    engine.admit(4, ["b"])
    changed = changed_rates(engine.solve())
    # Only component {3, 4} was touched; flows 1/2 keep cached rates.
    assert set(changed) == {3, 4}
    assert engine.stats.solver_calls == calls + 1
    assert engine.rate(1) == 50.0 and engine.rate(2) == 50.0
    assert changed[3] == 30.0 and changed[4] == 30.0


def test_component_rates_bit_identical_to_oracle_on_component():
    capacities = {"a": 97.0, "b": 31.0, "c": 53.0}
    engine = make_engine(capacities)
    engine.admit(1, ["a", "b"], cap=40.0)
    engine.admit(2, ["a"])
    engine.admit(3, ["c"])  # separate component
    engine.solve()

    oracle = textbook_max_min_rates(
        [["a", "b"], ["a"]], {"a": 97.0, "b": 31.0}, [40.0, float("inf")]
    )
    # Bit-identical, not just close.
    assert [engine.rate(1), engine.rate(2)] == oracle


def test_connected_graph_bit_identical_to_global_oracle():
    capacities = {"a": 80.0, "b": 45.0, "c": 120.0}
    flow_links = [["a", "b"], ["b", "c"], ["a", "c"], ["a"]]
    engine = make_engine(capacities)
    for fid, links in enumerate(flow_links):
        engine.admit(fid, links)
    engine.solve()
    oracle = textbook_max_min_rates(flow_links, capacities)
    assert [engine.rate(fid) for fid in range(len(flow_links))] == oracle


# ----------------------------------------------------------------------
# The named "max-min" allocator
# ----------------------------------------------------------------------
def test_wrapper_matches_oracle_validation():
    incremental = resolve_allocator("max-min")
    with pytest.raises(ValueError, match="non-positive capacity"):
        incremental([["l"]], {"l": 0.0})
    with pytest.raises(ValueError, match="unknown link"):
        incremental([["nope"]], {"l": 1.0})
    with pytest.raises(ValueError, match="flow_caps length"):
        incremental([["l"]], {"l": 1.0}, flow_caps=[1.0, 2.0])


def test_wrapper_matches_oracle_rates():
    flow_links = [["a"], ["a", "b"], ["c"], []]
    capacities = {"a": 100.0, "b": 20.0, "c": 70.0}
    caps = [float("inf"), float("inf"), 10.0, 5.0]
    got = resolve_allocator("max-min")(flow_links, capacities, caps)
    assert got == textbook_max_min_rates(flow_links, capacities, caps)


# ----------------------------------------------------------------------
# Randomized differential suite
# ----------------------------------------------------------------------
LINKS = ("l0", "l1", "l2", "l3", "l4", "l5")


@st.composite
def flow_graphs(draw):
    n_links = draw(st.integers(min_value=1, max_value=len(LINKS)))
    links = LINKS[:n_links]
    capacities = {
        link: draw(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
        for link in links
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flow_links = [
        draw(st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True))
        for _ in range(n_flows)
    ]
    caps = [
        draw(st.one_of(st.just(float("inf")), st.floats(min_value=1e-3, max_value=1e5)))
        for _ in range(n_flows)
    ]
    return flow_links, capacities, caps


@settings(max_examples=150, deadline=None)
@given(problem=flow_graphs())
def test_wrapper_differential_random_graphs(problem):
    flow_links, capacities, caps = problem
    got = resolve_allocator("max-min")(flow_links, capacities, caps)
    assert got == textbook_max_min_rates(flow_links, capacities, caps)


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
                    st.just(float("inf")), st.floats(min_value=1e-3, max_value=1e5)
                )
            )
            ops.append(("admit", next_fid, flinks, cap))
            live.append(next_fid)
            next_fid += 1
    return capacities, ops


@settings(max_examples=100, deadline=None)
@given(problem=admit_drain_sequences())
def test_engine_differential_admit_drain(problem):
    """After every op, engine state equals a from-scratch global solve."""
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
