"""A model run imports only the stdlib; an emulated trial adds numpy.

Each check runs in a fresh interpreter whose import system refuses the
named packages, so it fails if any code path touches them, not just if
they end up in ``sys.modules``.  scipy and networkx are refused
everywhere; numpy is refused on every non-emulated path.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCK = """
import sys

REFUSED = {refused!r}


class _Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            raise ImportError(f"import of {{name}} refused")
        return None


sys.meta_path.insert(0, _Refuse())
"""


def run_blocked(
    body: str, refused: tuple[str, ...] = ("scipy", "networkx", "numpy")
) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", BLOCK.format(refused=refused) + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_simulation_paths_need_neither_scipy_nor_networkx():
    """Nor numpy: a non-emulated run imports only the stdlib."""
    proc = run_blocked(
        """
        import repro.scenarios
        from repro import simulate
        from repro.platform.presets import cori_spec
        from repro.workflow.checks import lint_workflow
        from repro.workflow.synthetic import make_fork_join
        from repro.workflow.wfformat import workflow_from_wfformat, workflow_to_wfformat

        assert repro.scenarios.run_genomes(n_chromosomes=2).makespan > 0
        for system in ("cori", "summit"):
            assert repro.scenarios.run_swarp(system=system).makespan > 0
        wf = make_fork_join(3)
        assert simulate(cori_spec(n_compute=1, n_bb_nodes=1), wf).makespan > 0
        lint_workflow(wf)
        loaded = workflow_from_wfformat(workflow_to_wfformat(wf))
        assert [t.name for t in loaded.topological_order()] == [
            t.name for t in wf.topological_order()
        ]
        unobserved = ("exporters", "validate", "live", "manifest")
        loaded = [m for m in unobserved if f"repro.obs.{m}" in sys.modules]
        assert not loaded, loaded
        # Only an emulated run loads the emulator.
        assert "repro.emulation" not in sys.modules

        from repro.experiments import fig13

        assert fig13.FRACTIONS[::5] == (0.0, 0.5, 1.0)
        leaked = [m for m in REFUSED if m in sys.modules]
        assert not leaked, leaked
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_sweep_without_live_dir_leaves_the_live_bus_unloaded():
    tests_root = str(SRC.parent)  # makes tests.sweep.points importable
    proc = run_blocked(
        f"""
        sys.path.insert(0, {tests_root!r})
        """
        + """
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec.cartesian(
            "demo", "tests.sweep.points:square", axes={"x": [1, 2]}
        )
        assert run_sweep(spec).values() == {"x=1": 1, "x=2": 4}
        assert "repro.obs.live" not in sys.modules
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_seedless_emulated_runs_need_no_numpy():
    """An emulated run without a seed draws no interference."""
    proc = run_blocked(
        """
        from repro.scenarios import run_genomes, run_swarp

        for system in ("cori", "summit"):
            assert run_swarp(system=system, emulated=True).makespan > 0
        assert run_genomes(n_chromosomes=2, emulated=True).makespan > 0
        leaked = [m for m in REFUSED if m in sys.modules]
        assert not leaked, leaked
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_emulated_trial_runs_and_imports_numpy():
    proc = run_blocked(
        """
        from repro.scenarios import run_swarp

        assert run_swarp(emulated=True, seed=0).makespan > 0
        assert "numpy" in sys.modules
        print("ok")
        """,
        refused=("scipy", "networkx"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_fit_helpers_name_the_fit_extra_without_scipy():
    proc = run_blocked(
        """
        import repro.model
        assert repro.model.amdahl_time(10.0, 2, 0.0) == 5.0
        try:
            from repro.model import fit_lambda_io
        except ImportError as exc:
            print(exc)
        """,
        refused=("scipy", "networkx"),
    )
    assert proc.returncode == 0, proc.stderr
    assert "repro[fit]" in proc.stdout


def test_fit_helpers_resolve_lazily():
    import repro.model
    from repro.model import fitting

    assert repro.model.fit_lambda_io is fitting.fit_lambda_io
    assert repro.model.FitResult is fitting.FitResult


def test_lazy_packages_resolve_every_public_name():
    import repro.emulation
    import repro.model
    import repro.obs

    for package in (repro.emulation, repro.model, repro.obs):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
