"""Incremental cache: warm runs must equal cold runs, an edit must
re-analyze exactly the changed file plus its reverse-dependency closure,
and an edit to the linter itself must invalidate everything."""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lint import Checker
from repro.lint.semantic.cache import CACHE_FILENAME

FIXTURES = Path(__file__).parent / "fixtures" / "semantic"


def make_project(tmp_path: Path) -> Path:
    project = tmp_path / "proj"
    shutil.copytree(FIXTURES / "taintpkg", project / "taintpkg")
    shutil.copy(FIXTURES / "fs_bad.py", project / "fs_bad.py")
    (project / "stamp.py").write_text("import time\n\nSTARTED = time.time()\n")
    return project


def render_all(diags):
    return "\n".join(d.render() for d in diags)


def check(project: Path, cache_dir: "Path | None" = None) -> tuple[list, Checker]:
    checker = Checker(cache_dir=str(cache_dir) if cache_dir else None)
    return checker.check_paths([str(project)]), checker


def test_warm_run_equals_cold_run(tmp_path):
    project = make_project(tmp_path)
    cache_dir = tmp_path / "cache"

    cold, cold_run = check(project, cache_dir)
    assert (cache_dir / CACHE_FILENAME).exists()
    assert cold_run.stats.from_cache == []
    # whole-program (SIM100) and per-file (SIM001) findings alike
    assert {"SIM100", "SIM001"} <= {d.rule_id for d in cold}

    warm, warm_run = check(project, cache_dir)
    assert warm_run.stats.analyzed == []  # nothing changed, nothing re-parsed
    assert render_all(warm) == render_all(cold)
    assert [d.to_dict() for d in warm] == [d.to_dict() for d in cold]


def test_edit_reanalyzes_reverse_closure_only(tmp_path):
    project = make_project(tmp_path)
    cache_dir = tmp_path / "cache"

    check(project, cache_dir)

    # touch the leaf module: its dependents (middle, sink, clean) must be
    # re-analyzed; the unrelated fs_bad.py must come from cache.
    collectors = project / "taintpkg" / "collectors.py"
    collectors.write_text(collectors.read_text() + "\n# touched\n")

    _, warm_run = check(project, cache_dir)
    analyzed = {Path(p).name for p in warm_run.stats.analyzed}
    assert "collectors.py" in analyzed
    assert {"middle.py", "sink.py", "clean.py"} <= analyzed
    assert "fs_bad.py" not in analyzed
    assert any(Path(p).name == "fs_bad.py" for p in warm_run.stats.from_cache)


def test_incremental_output_matches_fresh_analysis(tmp_path):
    project = make_project(tmp_path)
    cache_dir = tmp_path / "cache"
    check(project, cache_dir)

    # fix the seeded bug: sort at the source
    collectors = project / "taintpkg" / "collectors.py"
    collectors.write_text(
        collectors.read_text().replace("for name in names:", "for name in sorted(names):")
    )

    warm, _ = check(project, cache_dir)
    fresh, _ = check(project)
    assert render_all(warm) == render_all(fresh)
    # the SIM100 through sink.py is gone once the source is sorted
    assert not any(d.rule_id == "SIM100" for d in warm)


def test_edit_downstream_keeps_upstream_cached(tmp_path):
    project = make_project(tmp_path)
    cache_dir = tmp_path / "cache"
    check(project, cache_dir)

    sink = project / "taintpkg" / "sink.py"
    sink.write_text(sink.read_text() + "\n# touched\n")

    warm, warm_run = check(project, cache_dir)
    analyzed = {Path(p).name for p in warm_run.stats.analyzed}
    # sink has no project dependents: only it is re-analyzed
    assert analyzed == {"sink.py"}
    # ... and the cross-module finding survives, seeded by cached summaries
    assert any(d.rule_id == "SIM100" for d in warm)


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    project = make_project(tmp_path)
    cache_dir = tmp_path / "cache"
    cold, _ = check(project, cache_dir)

    (cache_dir / CACHE_FILENAME).write_text("{not json")
    recovered, recovered_run = check(project, cache_dir)
    assert render_all(recovered) == render_all(cold)
    assert recovered_run.stats.from_cache == []


def test_linter_edit_invalidates_cache(tmp_path, monkeypatch):
    project = make_project(tmp_path)
    cache_dir = tmp_path / "cache"
    cold, _ = check(project, cache_dir)

    # an edited rule or analysis changes the digest of repro/lint sources
    monkeypatch.setattr("repro.lint.semantic.cache.linter_digest", lambda: "edited")
    rerun, rerun_run = check(project, cache_dir)
    assert rerun_run.stats.from_cache == []
    assert len(rerun_run.stats.analyzed) == rerun_run.stats.files
    assert render_all(rerun) == render_all(cold)
