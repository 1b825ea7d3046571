"""Fixture-corpus tests: every rule ID fires at exactly the marked
lines of its known-bad snippet and stays silent on the known-good one.

Expected findings are encoded in the fixtures themselves: a line that
should be flagged carries an ``# expect[SIMxxx]`` marker (repeated when
one line yields several findings).
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import Checker, Rule, all_rules

FIXTURES = Path(__file__).parent / "fixtures"
EXPECT = re.compile(r"expect\[(SIM\d+)\]")
#: Fixture pairs named after a rule that was folded into another one;
#: their findings now carry the surviving id.
FOLDED = {"SIM080": "SIM040"}


def _expected_findings(path: Path) -> Counter:
    """(rule_id, line) -> count, parsed from expect markers."""
    expected: Counter = Counter()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for rule_id in EXPECT.findall(line):
            expected[(rule_id, lineno)] += 1
    return expected


def _rule_ids_with_fixtures() -> list[str]:
    return sorted(p.stem[:6].upper() for p in FIXTURES.glob("sim*_bad.py"))


@pytest.mark.parametrize("rule_id", _rule_ids_with_fixtures())
def test_bad_fixture_flags_exact_lines(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_bad.py"
    selected = FOLDED.get(rule_id, rule_id)
    diagnostics = Checker(select=[selected]).check_file(path)
    found = Counter((d.rule_id, d.line) for d in diagnostics)
    expected = _expected_findings(path)
    assert expected, f"fixture {path.name} has no expect markers"
    assert found == expected
    assert all(d.rule_id == selected for d in diagnostics)
    assert all(d.col >= 1 for d in diagnostics)


@pytest.mark.parametrize("rule_id", _rule_ids_with_fixtures())
def test_good_fixture_is_clean(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_good.py"
    assert path.exists(), f"missing good fixture for {rule_id}"
    assert Checker(select=[FOLDED.get(rule_id, rule_id)]).check_file(path) == []


@pytest.mark.parametrize("rule_id", ["SIM001", "SIM002", "SIM003", "SIM010", "SIM011"])
def test_whole_program_rules_do_not_cover_the_per_file_rule(rule_id):
    """Why SIM001–003 and SIM010–011 stay beside SIM100–103 and
    SIM201–202: with every rule on, their bad fixtures get only the
    per-file id (e.g. ``trace.append(time.time())`` reaches no sink)."""
    diagnostics = Checker().check_file(FIXTURES / f"{rule_id.lower()}_bad.py")
    assert {d.rule_id for d in diagnostics} == {rule_id}


def test_every_registered_rule_has_a_fixture():
    # Whole-program rules (no per-file check) are exercised by the
    # corpus under fixtures/semantic/ (see test_semantic_*.py), not by
    # single-file snippets.
    whole_program = {
        rule_id for rule_id, cls in all_rules().items() if cls.check is Rule.check
    }
    assert whole_program == {"SIM100", "SIM101", "SIM102", "SIM103", "SIM201", "SIM202"}
    with_fixtures = set(_rule_ids_with_fixtures())
    assert set(all_rules()) - whole_program <= with_fixtures
    assert (Path(__file__).parent / "fixtures" / "semantic").is_dir()


def test_at_least_eight_rules_registered():
    assert len(all_rules()) >= 8


def test_rule_metadata_complete():
    for rule_id, cls in all_rules().items():
        assert cls.id == rule_id
        assert cls.summary, rule_id
        assert cls.rationale, rule_id
        assert cls.fix_hint, rule_id


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        Checker(select=["SIM404"])


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    diagnostics = Checker().check_file(bad)
    assert [d.rule_id for d in diagnostics] == ["SIM999"]
