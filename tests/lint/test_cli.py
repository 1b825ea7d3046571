"""CLI behaviour: exit codes, selection flags, and output formats."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import all_rules
from repro.lint.cli import main
from repro.lint.config import LintConfig

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "sim001_bad.py")
GOOD = str(FIXTURES / "sim001_good.py")


@pytest.fixture(autouse=True)
def default_config(monkeypatch):
    """Ignore the repository's [tool.repro-lint] table (its cache and
    baseline) so these tests see the CLI's own defaults."""
    monkeypatch.setattr("repro.lint.cli.LintConfig.load", lambda start=None: LintConfig())


def test_exit_zero_on_clean_file(capsys):
    assert main([GOOD]) == 0
    assert capsys.readouterr().out == ""


def test_exit_one_on_findings(capsys):
    assert main([BAD]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out
    assert "sim001_bad.py" in out


def test_text_format_has_locations(capsys):
    main(["--select", "SIM001", BAD])
    first = capsys.readouterr().out.splitlines()[0]
    # path:line:col: ID [severity] message
    assert first.startswith(BAD + ":")
    line, col = first[len(BAD) + 1 :].split(":")[:2]
    assert line.isdigit() and col.isdigit()


def test_json_format_round_trips(capsys):
    assert main(["--format", "json", BAD]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload
    for entry in payload:
        assert entry["rule"] == "SIM001"
        assert entry["path"].endswith("sim001_bad.py")
        assert isinstance(entry["line"], int) and entry["line"] >= 1
        assert entry["severity"] in ("error", "warning")
        assert entry["message"]


def test_json_format_empty_list_when_clean(capsys):
    assert main(["--format", "json", GOOD]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_select_excludes_other_rules(capsys):
    assert main(["--select", "SIM030", BAD]) == 0


def test_ignore_suppresses_rule(capsys):
    assert main(["--ignore", "SIM001", BAD]) == 0


def test_comma_separated_ids(capsys):
    assert main(["--select", "SIM001,SIM030", BAD]) == 1


def test_unknown_rule_id_is_usage_error(capsys):
    assert main(["--select", "SIM404", BAD]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM001", "SIM010", "SIM020", "SIM030"):
        assert rule_id in out


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", GOOD],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_broken_file_gives_one_diagnostic_with_every_rule(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def f(:\n")
    (tmp_path / "latin1.py").write_bytes(b"x = '\xe9'\n")
    every_rule = ",".join(all_rules())
    assert main(["--format", "json", "--select", every_rule, str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(Path(e["path"]).name, e["rule"]) for e in payload] == [
        ("broken.py", "SIM999"),
        ("latin1.py", "SIM999"),
    ]
