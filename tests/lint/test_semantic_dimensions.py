"""Unit/dimension dataflow (SIM200-series): inference from units
constants and naming conventions, cross-dimension arithmetic, and
bare-magnitude arguments."""

from __future__ import annotations

from pathlib import Path

from repro.lint import Checker
from repro.lint.semantic.dimensions import (
    BYTES,
    BYTES_PER_S,
    DIMENSIONLESS,
    SECONDS,
    dim_from_name,
    magnitude_compatible,
)

FIXTURES = Path(__file__).parent / "fixtures" / "semantic"


def run(*paths, select=("SIM201", "SIM202")):
    return Checker(select=list(select)).check_paths([str(p) for p in paths])


def test_bad_fixture_reports_each_mixup():
    diags = run(FIXTURES / "dims_bad.py")
    by_rule = sorted((d.rule_id, d.line) for d in diags)
    rules = [r for r, _ in by_rule]
    assert rules.count("SIM201") == 2  # bytes+seconds add, seconds>bytes compare
    assert rules.count("SIM202") == 2  # two bare magnitudes into dim-typed params
    messages = " ".join(d.message for d in diags)
    assert "bytes" in messages and "seconds" in messages


def test_good_fixture_is_clean():
    assert run(FIXTURES / "dims_good.py") == []


def test_name_inference_conventions():
    assert dim_from_name("size_bytes") == BYTES
    assert dim_from_name("makespan") == SECONDS
    assert dim_from_name("bandwidth") == BYTES_PER_S
    assert dim_from_name("bytes_per_second") == BYTES_PER_S
    assert dim_from_name("count") is None  # unknown, not dimensionless
    # rightmost dimensioned token wins
    assert dim_from_name("stage_in_duration_s") == SECONDS


def test_magnitude_compatibility_is_binding_site_only():
    # `bandwidth = 6.5 * GB` is the repo's idiom for quoting rates: the
    # byte-scale constant supplies the magnitude, the name supplies /s.
    assert magnitude_compatible(BYTES, BYTES_PER_S)
    assert not magnitude_compatible(BYTES, SECONDS)


def test_rate_quoted_via_byte_constant_not_flagged(tmp_path):
    src = (
        "from repro.platform.units import GB\n"
        "def f():\n"
        "    bandwidth = 6.5 * GB\n"
        "    return bandwidth\n"
    )
    target = tmp_path / "rates.py"
    target.write_text(src)
    assert run(target) == []


def test_cross_dimension_arithmetic_flagged_inline(tmp_path):
    src = (
        "from repro.platform.units import MB, MINUTE\n"
        "def f():\n"
        "    return 3 * MB + 2 * MINUTE\n"
    )
    target = tmp_path / "mix.py"
    target.write_text(src)
    diags = run(target)
    assert [d.rule_id for d in diags] == ["SIM201"]


def test_small_literals_not_flagged(tmp_path):
    # thresholds/counts below the magnitude threshold stay silent
    src = (
        "def wait(timeout_s):\n"
        "    return timeout_s\n"
        "def caller():\n"
        "    return wait(30)\n"
    )
    target = tmp_path / "small.py"
    target.write_text(src)
    assert run(target) == []
