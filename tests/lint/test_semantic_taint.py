"""Determinism-taint corpus: cross-module propagation, sanitizers,
and the SIM101/102/103 syntactic companions."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import pytest

from repro.lint import Checker

FIXTURES = Path(__file__).parent / "fixtures" / "semantic"


def run(*paths, select=None):
    return Checker(select=select).check_paths([str(p) for p in paths])


# ----------------------------------------------------------------------
# SIM100: the seeded cross-module bug, two call-graph hops from the sink
# ----------------------------------------------------------------------

def test_cross_module_taint_reaches_sink():
    diags = run(FIXTURES / "taintpkg", select=["SIM100"])
    assert [d.rule_id for d in diags] == ["SIM100"]
    (diag,) = diags
    assert diag.path.endswith("sink.py")
    assert "event-heap insertion" in diag.message
    assert "unsorted" in diag.message


def test_taint_chain_names_every_hop():
    (diag,) = run(FIXTURES / "taintpkg", select=["SIM100"])
    chain = "\n".join(diag.chain)
    # source -> middle -> sink, with files and lines for each hop
    assert "collectors.py" in chain
    assert "taintpkg.collectors.discovered_tasks" in chain
    assert "taintpkg.middle.ready_queue" in chain
    assert "sink.py" in chain
    assert chain.index("collectors.py") < chain.index("middle.ready_queue")
    # the rendered diagnostic shows the chain too
    assert "| " in diags_render(diag)


def diags_render(diag):
    return diag.render()


def test_deleted_source_module_leaves_no_stale_finding(tmp_path, monkeypatch, capsys):
    """A second CLI run over the same project sees the file deleted
    between the runs; a stale ``cache_dir`` key in pyproject is ignored."""
    from repro.lint.cli import main

    shutil.copytree(FIXTURES / "taintpkg", tmp_path / "taintpkg")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["taintpkg"]\ncache_dir = ".c"\n'
    )
    monkeypatch.chdir(tmp_path)
    assert main(["--select", "SIM100"]) == 1
    assert "SIM100" in capsys.readouterr().out

    (tmp_path / "taintpkg" / "collectors.py").unlink()
    assert main(["--select", "SIM100"]) == 0
    assert "SIM100" not in capsys.readouterr().out


def test_sorted_launders_taint():
    # clean.py calls the same tainted producer but sorts before the sink
    diags = run(FIXTURES / "taintpkg", select=["SIM100"])
    assert not any(d.path.endswith("clean.py") for d in diags)


def test_single_module_analysis_has_no_cross_module_noise():
    # analyzing only middle.py (no sink in scope) reports nothing
    assert run(FIXTURES / "taintpkg" / "middle.py", select=["SIM100"]) == []


def test_wall_clock_and_global_rng_sources_reach_sink():
    # the SIM001/SIM002 catalog: time.time, time.monotonic_ns,
    # datetime.now and np.random.rand are all SIM100 sources
    path = FIXTURES / "clock_bad.py"
    expected = [
        lineno
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"expect\[SIM100\]", line)
    ]
    diags = run(path, select=["SIM100"])
    assert [d.line for d in diags] == expected
    assert len(expected) == 4
    messages = " ".join(d.message for d in diags)
    assert "wall-clock read" in messages
    assert "numpy.random.rand() global-RNG draw" in messages


def test_salted_hash_reaches_sink():
    path = FIXTURES / "hash_bad.py"
    expected = [
        lineno
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"expect\[SIM100\]", line)
    ]
    diags = run(path, select=["SIM100"])
    assert [d.line for d in diags] == expected
    assert len(expected) == 3
    assert all("hash() value" in d.message for d in diags)


def test_seeded_generators_and_simulated_time_clean():
    assert run(FIXTURES / "clock_good.py", select=["SIM100"]) == []


# ----------------------------------------------------------------------
# SIM101: filesystem enumeration
# ----------------------------------------------------------------------

def test_unsorted_iterdir_flagged():
    diags = run(FIXTURES / "fs_bad.py", select=["SIM101"])
    assert [d.rule_id for d in diags] == ["SIM101"]
    assert "iterdir" in diags[0].message


def test_sorted_and_counting_idioms_clean():
    assert run(FIXTURES / "fs_good.py", select=["SIM101"]) == []


# ----------------------------------------------------------------------
# SIM102 / SIM103
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "rule_id, bad, good, n_bad",
    [
        ("SIM102", "sim102_bad.py", "sim102_good.py", 2),
        ("SIM103", "sim103_bad.py", "sim103_good.py", 2),
    ],
)
def test_syntactic_rules(rule_id, bad, good, n_bad):
    bad_diags = run(FIXTURES / bad, select=[rule_id])
    assert [d.rule_id for d in bad_diags] == [rule_id] * n_bad
    assert run(FIXTURES / good, select=[rule_id]) == []


# ----------------------------------------------------------------------
# Selection / pragma behavior at the engine level
# ----------------------------------------------------------------------

def test_select_excludes_other_semantic_rules():
    diags = run(FIXTURES, select=["SIM102"])
    assert {d.rule_id for d in diags} == {"SIM102"}


def test_line_pragma_suppresses_semantic_finding(tmp_path):
    source = FIXTURES.joinpath("fs_bad.py").read_text()
    patched = source.replace(
        "for path in Path(directory).iterdir():",
        "for path in Path(directory).iterdir():  # repro-lint: ignore[SIM101] - test",
    )
    target = tmp_path / "fs_pragma.py"
    target.write_text(patched)
    assert run(target, select=["SIM101"]) == []
