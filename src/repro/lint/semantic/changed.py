"""Git plumbing for ``repro-lint --changed [BASE]``.

These helpers only name the files changed versus a base ref.  The
checker turns them into the set of files that report findings: the
changed files plus their reverse-dependency closure in its own module
graph, because a taint or dimension summary change in an edited module
can surface findings in any module that (transitively) imports it.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Optional


def git_repo_root(start: "str | Path | None" = None) -> Optional[Path]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=str(start) if start else None,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return Path(out.stdout.strip())


def changed_python_files(base: str, repo_root: Path) -> Optional[list[Path]]:
    """Tracked files changed vs ``base`` plus untracked files, absolute.

    Returns None when git is unavailable or the ref does not resolve —
    callers should fall back to a full run rather than lint nothing.
    """
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=ACMR", base, "--", "*.py"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            check=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    names = sorted(
        set(diff.stdout.splitlines()) | set(untracked.stdout.splitlines())
    )
    return [repo_root / name for name in names if name.endswith(".py")]
