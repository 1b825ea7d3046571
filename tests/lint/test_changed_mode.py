"""Git-aware ``--changed`` mode: changed files plus their reverse-
dependency closure, with graceful fallback outside a checkout."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from repro.lint import Checker
from repro.lint.cli import main
from repro.lint.semantic.changed import changed_python_files, git_repo_root


def git(*argv, cwd):
    subprocess.run(
        ["git", *argv],
        cwd=cwd,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(cwd),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def repo(tmp_path):
    """A git repo with a 3-module chain: app -> midlayer -> base."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "base.py").write_text("def width():\n    return 1\n")
    (pkg / "midlayer.py").write_text(
        "from pkg.base import width\n\ndef padded():\n    return width() + 1\n"
    )
    (pkg / "app.py").write_text(
        "from pkg.midlayer import padded\n\ndef render():\n    return padded()\n"
    )
    (pkg / "unrelated.py").write_text("def other():\n    return 0\n")
    git("init", "-q", cwd=tmp_path)
    git("add", "-A", cwd=tmp_path)
    git("commit", "-q", "-m", "seed", cwd=tmp_path)
    return tmp_path


def test_changed_files_empty_when_clean(repo):
    assert changed_python_files("HEAD", repo) == []


def test_changed_files_lists_edits_and_untracked(repo):
    (repo / "pkg" / "base.py").write_text("def width():\n    return 2\n")
    (repo / "pkg" / "fresh.py").write_text("x = 1\n")
    changed = changed_python_files("HEAD", repo)
    names = sorted(p.name for p in changed)
    assert names == ["base.py", "fresh.py"]


def test_reverse_closure_includes_transitive_importers(repo):
    # every module gets a finding; restricting the report to base.py
    # must keep base itself, its importer, and its importer's importer —
    # not the unrelated module
    for name in ("base", "midlayer", "app", "unrelated"):
        module = repo / "pkg" / f"{name}.py"
        module.write_text("import time\nSTAMP = time.time()\n" + module.read_text())
    diagnostics = Checker(select=["SIM001"]).check_paths(
        [repo / "pkg"], restrict_to=[repo / "pkg" / "base.py"]
    )
    names = sorted({Path(d.path).name for d in diagnostics})
    assert names == ["app.py", "base.py", "midlayer.py"]


def test_unresolvable_base_returns_none(repo):
    assert changed_python_files("no-such-ref", repo) is None


def test_git_repo_root(repo, tmp_path):
    assert git_repo_root(repo) == repo.resolve()
    outside = tmp_path / "outside"
    outside.mkdir()
    # root lookup from a non-repo dir: our tmp dir has a repo at repo/,
    # so probe a subprocess-level failure instead via a bogus path
    assert git_repo_root("/nonexistent-dir-for-lint-test") is None


def test_cli_changed_restricts_reporting(repo, monkeypatch, capsys):
    # introduce a wall-clock finding in base.py (SIM001 territory) and
    # an unrelated finding elsewhere; --changed HEAD must surface only
    # the closure of the edited file
    (repo / "pkg" / "base.py").write_text(
        "import time\n\ndef width():\n    return time.time()\n"
    )
    (repo / "pkg" / "unrelated.py").write_text(
        "import time\n\ndef other():\n    return time.time()\n"
    )
    git("add", "-A", cwd=repo)
    git("commit", "-q", "-m", "both dirty", cwd=repo)
    # now edit only base.py again
    (repo / "pkg" / "base.py").write_text(
        "import time\n\ndef width():\n    return time.time() + 1\n"
    )
    monkeypatch.chdir(repo)
    exit_code = main(["--changed", "HEAD", "--select", "SIM001", str(repo / "pkg")])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "base.py" in out
    assert "unrelated.py" not in out


def test_cli_changed_clean_tree_reports_nothing(repo, monkeypatch, capsys):
    monkeypatch.chdir(repo)
    assert main(["--changed", "HEAD", str(repo / "pkg")]) == 0
    assert capsys.readouterr().out == ""


def test_cli_changed_outside_git_falls_back(tmp_path, monkeypatch, capsys):
    target = tmp_path / "loose.py"
    target.write_text("import time\nx = time.time()\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        "repro.lint.semantic.changed.git_repo_root", lambda start=None: None
    )
    exit_code = main(["--changed", "HEAD", "--select", "SIM001", str(target)])
    captured = capsys.readouterr()
    assert exit_code == 1  # fell back to linting everything
    assert "linting everything" in captured.err
