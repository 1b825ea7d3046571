"""The per-class service clock of ``ComponentSolver``.

A class's clock (``served`` as of ``anchor``) counts the bytes each
member has received.  ``solve(now)`` advances it at the old rate exactly
when the class rate changes, so a member admitted at reading ``s`` with
``size`` bytes is done at reading ``s + size`` whatever the rates were.
"""

from __future__ import annotations

import math
import random

from repro.network.components import ComponentSolver, static_capacity
from repro.network.fairshare import max_min_fair_rates


def test_solve_advances_only_the_classes_whose_rate_changed():
    solver = ComponentSolver(static_capacity({"a": 100.0, "b": 60.0}))
    a = solver.admit(1, ["a"])
    b = solver.admit(2, ["b"])
    assert solver.solve(now=0.0) == [a, b]
    assert (a.rate, a.served, a.anchor) == (100.0, 0.0, 0.0)

    # A second flow on "a" halves that class's rate at t=2: its clock is
    # advanced at the old rate first.  "b" is not touched.
    assert solver.admit(3, ["a"]) is a
    assert solver.solve(now=2.0) == [a]
    assert (a.rate, a.served, a.anchor) == (50.0, 200.0, 2.0)
    assert (b.served, b.anchor) == (0.0, 0.0)
    assert b.served_at(3.0) == 180.0
    assert a.served_at(3.0) == 250.0


def test_gaining_a_member_at_an_unchanged_rate_leaves_the_clock_alone():
    solver = ComponentSolver(static_capacity({"l": 100.0}))
    capped = solver.admit(1, ["l"], cap=10.0)
    solver.solve(now=0.0)
    solver.admit(2, ["l"], cap=10.0)
    assert solver.solve(now=5.0) == []
    assert (capped.rate, capped.served, capped.anchor) == (10.0, 0.0, 0.0)
    assert capped.served_at(5.0) == 50.0
    assert solver.n_classes == 1


def test_an_emptied_class_is_dropped_and_a_new_one_starts_at_zero():
    solver = ComponentSolver(static_capacity({"l": 100.0}))
    first = solver.admit(1, ["l"])
    solver.solve(now=0.0)
    solver.drain(1)
    assert solver.n_classes == 0
    second = solver.admit(2, ["l"])
    assert second is not first
    assert second.served_at(7.0) == 0.0


def test_component_rates_match_a_whole_graph_solve_after_every_event():
    """A seeded admit/drain replay over clustered links: after every
    event, each flow's rate from the dirty-component solve equals a
    whole-graph ``max_min_fair_rates`` call at 1e-9 relative.

    Twelve clusters of an up/down link pair keep most components small;
    5% of flows also cross a shared backbone, so components merge and
    split.  Once 100 flows are active, each admit drains a random one.
    """
    rng = random.Random(7)
    window, n_clusters = 100, 12
    capacities = {"core": 1000.0}
    for c in range(n_clusters):
        capacities[f"c{c}:up"] = 100.0 + c
        capacities[f"c{c}:down"] = 80.0 + c
    solver = ComponentSolver(static_capacity(capacities))
    active: dict[int, tuple[tuple[str, ...], float]] = {}

    def check(event: str) -> None:
        solver.solve()
        fids = list(active)
        expected = max_min_fair_rates(
            [active[fid][0] for fid in fids],
            capacities,
            [active[fid][1] for fid in fids],
        )
        got = solver.rates
        assert got.keys() == active.keys(), event
        for fid, rate in zip(fids, expected):
            assert math.isclose(got[fid], rate, rel_tol=1e-9), (event, fid)

    for fid in range(4 * window):
        cluster = rng.randrange(n_clusters)
        links = (f"c{cluster}:up", f"c{cluster}:down")
        if rng.random() < 0.05:
            links += ("core",)
        cap = rng.choice([math.inf, 50.0, 25.0])
        active[fid] = (links, cap)
        solver.admit(fid, links, cap)
        check(f"admit {fid}")
        if len(active) > window:
            victim = rng.choice(list(active))
            del active[victim]
            solver.drain(victim)
            check(f"drain {victim}")
