"""The per-class service clock of ``ComponentSolver``.

A class's clock (``served`` as of ``anchor``) counts the bytes each
member has received.  ``solve(now)`` advances it at the old rate exactly
when the class rate changes, so a member admitted at reading ``s`` with
``size`` bytes is done at reading ``s + size`` whatever the rates were.
"""

from __future__ import annotations

from repro.network.components import ComponentSolver, static_capacity


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
