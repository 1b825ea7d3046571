"""Unit tests for sweep specifications and point identities."""

import pytest

from repro.sweep import SweepSpec, point_id, resolve_func, sanitize_point_id


def test_point_id_sorts_keys():
    assert point_id({"b": 2, "a": 1}) == point_id({"a": 1, "b": 2}) == "a=1,b=2"


def test_point_id_formats_bools_and_floats():
    assert point_id({"flag": True}) == "flag=true"
    assert point_id({"flag": False}) == "flag=false"
    assert point_id({"f": 0.25}) == "f=0.25"
    # repr keeps shortest round-trippable form, stable across runs.
    assert point_id({"f": 0.1}) == "f=0.1"


def test_point_id_rejects_empty():
    with pytest.raises(ValueError):
        point_id({})


def test_sanitize_point_id_is_filesystem_safe():
    assert sanitize_point_id("a=1,b=x/y z") == "a=1,b=x_y_z"
    assert "/" not in sanitize_point_id("path=/etc/passwd")


def test_cartesian_product_and_constants():
    spec = SweepSpec.cartesian(
        "demo",
        "tests.sweep.points:square",
        axes={"x": [1, 2, 3], "y": ["a", "b"]},
        constants={"n": 5},
    )
    assert len(spec) == 6
    assert all(p["n"] == 5 for p in spec.points)
    assert list(spec.points_by_id()) == sorted(spec.points_by_id())


def test_cartesian_requires_axes():
    with pytest.raises(ValueError):
        SweepSpec.cartesian("demo", "tests.sweep.points:square", axes={})


def test_duplicate_points_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec(
            sweep_id="demo",
            func="tests.sweep.points:square",
            points=({"x": 1}, {"x": 1}),
        )


def test_non_json_params_rejected():
    with pytest.raises(ValueError, match="JSON"):
        SweepSpec(
            sweep_id="demo",
            func="tests.sweep.points:square",
            points=({"x": (1, 2)},),  # tuples don't survive a round trip
        )
    with pytest.raises(ValueError, match="JSON"):
        SweepSpec(
            sweep_id="demo",
            func="tests.sweep.points:square",
            points=({"x": float("nan")},),
        )


def test_numpy_int_scalars_rejected():
    # np.float64 subclasses float and survives the round trip; np.int64
    # does not serialize and must be cast by the spec author.
    np = pytest.importorskip("numpy")
    with pytest.raises(ValueError, match="JSON"):
        SweepSpec(
            sweep_id="demo",
            func="tests.sweep.points:square",
            points=({"x": np.int64(3)},),
        )


def test_func_reference_validated():
    with pytest.raises(ValueError, match="pkg.mod:callable"):
        SweepSpec(sweep_id="demo", func="no_colon_here", points=({"x": 1},))


def test_points_by_id_sorted():
    spec = SweepSpec(
        sweep_id="demo",
        func="tests.sweep.points:square",
        points=({"x": 2}, {"x": 1}),
    )
    assert list(spec.points_by_id()) == ["x=1", "x=2"]


def test_resolve_func():
    func = resolve_func("tests.sweep.points:square")
    assert func({"x": 3}) == 9
    with pytest.raises(ValueError):
        resolve_func("tests.sweep.points")
    with pytest.raises(ValueError):
        resolve_func("tests.sweep.points:missing")
    with pytest.raises(ModuleNotFoundError):
        resolve_func("tests.sweep.nope:missing")
