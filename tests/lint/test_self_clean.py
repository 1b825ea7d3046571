"""Tier-1 gate: the repository's own source tree lints clean.

This is what turns the rules from advisory into enforced — any new
wall-clock call, global-RNG draw, raw magnitude, DES-hygiene slip, or
whole-program taint/dimension finding in ``src/`` fails the test suite,
not just a separate CI step.  One checker pass feeds every test here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Baseline, Checker, Rule, all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / ".repro-lint-baseline"


@pytest.fixture(scope="module")
def src_diagnostics():
    src = REPO_ROOT / "src"
    assert src.is_dir(), f"source tree not found at {src}"
    return Checker().check_paths([src])


def _whole_program(rule_id: str) -> bool:
    cls = all_rules().get(rule_id)
    return cls is not None and cls.check is Rule.check


def test_src_tree_lints_clean(src_diagnostics):
    """Per-file rules: zero findings, no baseline."""
    per_file = [d for d in src_diagnostics if not _whole_program(d.rule_id)]
    assert per_file == [], "\n" + "\n".join(d.render() for d in per_file)


def test_src_tree_semantic_clean_modulo_baseline(src_diagnostics):
    """Whole-program gate: zero unbaselined SIM1xx/SIM2xx findings."""
    whole = [d for d in src_diagnostics if _whole_program(d.rule_id)]
    fresh = Baseline.load(BASELINE).filter(whole)
    assert fresh == [], "\n" + "\n".join(d.render() for d in fresh)


def test_baseline_has_no_stale_entries(src_diagnostics):
    """Every committed baseline entry must still match a real finding."""
    baseline = Baseline.load(BASELINE)
    baseline.filter(src_diagnostics)
    assert baseline.unused() == [], baseline.unused()
