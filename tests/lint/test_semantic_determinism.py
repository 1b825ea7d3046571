"""Byte-identity guarantees: checker output must be identical across
repeated runs and output formats."""

from __future__ import annotations

from pathlib import Path

from repro.lint import Checker
from repro.lint.sarif import collect_rule_meta, render_sarif

FIXTURES = Path(__file__).parent / "fixtures" / "semantic"


def rendered_output() -> str:
    diagnostics = Checker().check_paths([str(FIXTURES)])
    return "\n".join(d.render() for d in diagnostics)


def test_repeated_runs_are_byte_identical():
    first = rendered_output()
    assert first  # the corpus is not empty
    for _ in range(3):
        assert rendered_output() == first


def test_sarif_output_is_byte_identical_across_runs():
    def sarif() -> str:
        diagnostics = Checker().check_paths([str(FIXTURES)])
        rule_ids = {d.rule_id for d in diagnostics}
        return render_sarif(diagnostics, collect_rule_meta(rule_ids))

    baseline = sarif()
    assert '"codeFlows"' in baseline
    for _ in range(2):
        assert sarif() == baseline


def test_sarif_carries_code_flow_for_taint_chain():
    diagnostics = Checker(select=["SIM100"]).check_paths([str(FIXTURES / "taintpkg")])
    doc = render_sarif(diagnostics, collect_rule_meta(["SIM100"]))
    assert '"codeFlows"' in doc
    assert "collectors.py" in doc  # the source hop is in the thread flow


def test_diagnostics_sorted_by_location():
    diagnostics = Checker().check_paths([str(FIXTURES)])
    keys = [(d.path, d.line, d.col, d.rule_id, d.message) for d in diagnostics]
    assert keys == sorted(keys)
