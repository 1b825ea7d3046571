"""Tests for experiment infrastructure: results, calibration, the shared
SWarp run helper, CLI."""

import dataclasses

import pytest

import repro.experiments.common as common
from repro.experiments import ALL_EXPERIMENTS, ExperimentResult, calibrate_swarp
from repro.experiments.cli import main, run_experiment
from repro.experiments.common import SwarpTrial, swarp_trial
from repro.scenarios import run_swarp
from repro.storage import BBMode
from repro.model import observed_time
from repro.platform.presets import TABLE_I


# ----------------------------------------------------------------------
# ExperimentResult
# ----------------------------------------------------------------------
def test_result_add_row_and_column():
    r = ExperimentResult("x", "title", columns=("a", "b"))
    r.add_row(1, 2.0)
    r.add_row(3, 4.0)
    assert r.column("a") == [1, 3]
    assert r.column("b") == [2.0, 4.0]


def test_result_row_arity_checked():
    r = ExperimentResult("x", "title", columns=("a", "b"))
    with pytest.raises(ValueError):
        r.add_row(1)


def test_result_unknown_column():
    r = ExperimentResult("x", "title", columns=("a",))
    with pytest.raises(KeyError):
        r.column("zz")


def test_result_render_contains_everything():
    r = ExperimentResult("figX", "My Title", columns=("col1", "col2"))
    r.add_row("v", 1.5)
    r.notes.append("a note")
    text = r.render()
    assert "figX" in text and "My Title" in text
    assert "col1" in text and "col2" in text
    assert "1.500" in text
    assert "note: a note" in text


def test_result_render_empty_rows():
    r = ExperimentResult("figX", "t", columns=("c",))
    assert "c" in r.render()


# ----------------------------------------------------------------------
# calibrate_swarp
# ----------------------------------------------------------------------
def test_calibration_runs_for_both_systems():
    for system in ("cori", "summit"):
        cal = calibrate_swarp(system)
        assert cal.resample_flops > 0
        assert cal.combine_flops > 0
        assert 0 < cal.lambda_resample < 1
        assert 0 < cal.lambda_combine < 1


def test_calibration_is_cached():
    assert calibrate_swarp("cori") is calibrate_swarp("cori")


def test_calibration_eq4_consistency():
    """The calibrated flops must predict the observed reference time
    exactly when fed back through the forward model at the same core
    count (Eq. 4 is self-inverse at the calibration point)."""
    cal = calibrate_swarp("cori")
    speed = TABLE_I["cori"]["core_speed"]
    tc1 = cal.resample_flops / speed
    predicted = observed_time(tc1, cal.cores, cal.lambda_resample)
    assert predicted == pytest.approx(cal.observed_resample_t, rel=1e-9)


def test_calibration_per_core_count_differs():
    c32 = calibrate_swarp("cori", cores=32)
    c1 = calibrate_swarp("cori", cores=1)
    assert c32.resample_flops != c1.resample_flops


# ----------------------------------------------------------------------
# swarp_trial: one memoized SWarp run shared by figures 4-8, 10 and 11
# ----------------------------------------------------------------------
def test_swarp_trial_matches_a_direct_stage_in_run():
    direct = run_swarp(
        system="cori", bb_mode=BBMode.STRIPED, input_fraction=0.5,
        intermediates_in_bb=True, outputs_in_bb=True, n_pipelines=2,
        cores_per_task=1, include_stage_in=True, emulated=True, seed=3,
    )
    trial = swarp_trial(
        "striped", 3, fraction=0.5, outputs_in_bb=True, pipelines=2,
        cores=1, stage_in=True,
    )
    assert trial == SwarpTrial(
        makespan=direct.makespan,
        stage_in=direct.trace.task_record("stage_in").duration,
        resample=direct.mean_duration("resample"),
        combine=direct.mean_duration("combine"),
    )


def test_swarp_trial_matches_a_direct_run_without_stage_in():
    direct = run_swarp(
        system="summit", input_fraction=0.25, intermediates_in_bb=False,
        n_pipelines=1, cores_per_task=8, include_stage_in=False,
        emulated=True, seed=1,
    )
    trial = swarp_trial(
        "on-node", 1, fraction=0.25, intermediates_in_bb=False, cores=8
    )
    assert trial == SwarpTrial(
        makespan=direct.makespan,
        stage_in=0.0,
        resample=direct.mean_duration("resample"),
        combine=direct.mean_duration("combine"),
    )


def test_swarp_trial_without_seed_is_the_calibrated_simple_model():
    calibration = calibrate_swarp("cori", 1)
    direct = run_swarp(
        system="cori", bb_mode=BBMode.PRIVATE, input_fraction=1.0,
        intermediates_in_bb=True, outputs_in_bb=True, n_pipelines=4,
        cores_per_task=1, include_stage_in=False, emulated=False,
        resample_flops=calibration.resample_flops,
        combine_flops=calibration.combine_flops,
    )
    trial = swarp_trial(
        "private", None, outputs_in_bb=True, pipelines=4, cores=1
    )
    assert trial.makespan == direct.makespan
    assert trial.resample == direct.mean_duration("resample")
    assert trial.combine == direct.mean_duration("combine")


def test_swarp_trial_caches_only_floats():
    trial = swarp_trial("private", 0, fraction=0.0)
    assert swarp_trial("private", 0, fraction=0.0) is trial
    assert all(
        type(getattr(trial, f.name)) is float
        for f in dataclasses.fields(trial)
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        trial.makespan = 0.0


def test_fig8_after_fig11_runs_no_simulation(monkeypatch):
    """fig8's runs are a subset of fig11's measured runs."""
    from repro.experiments import fig8, fig11

    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return run_swarp(*args, **kwargs)

    monkeypatch.setattr(common, "run_swarp", counting)
    swarp_trial.cache_clear()
    fig11.run(quick=True)
    assert calls, "fig11 ran no simulation"
    calls.clear()
    fig8.run(quick=True)
    assert calls == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_run_experiment_unknown_id():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


def test_all_experiments_registered():
    assert set(ALL_EXPERIMENTS) == {
        "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig13", "fig14", "policies",
    }


def test_cli_runs_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "cori" in out and "summit" in out


def test_cli_rejects_unknown(capsys):
    assert main(["nope"]) == 2


def test_cli_all_takes_a_config_flag(capsys):
    """`all` gives the config to fig13/fig14 and runs the rest as is."""
    argv = ["all", "--quick", "--list-points", "--network-allocator", "equal-split"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "fig4 (15 points" in out
    assert "network_allocator=equal-split,system=cori" in out


def test_cli_rejects_a_config_for_a_named_experiment_up_front(capsys):
    argv = ["fig13", "fig4", "--list-points", "--network-allocator", "equal-split"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before fig13 was listed
    assert "fig13, fig14" in captured.err and "fig4" in captured.err


def test_cli_quick_flag(capsys):
    assert main(["fig4", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out


def test_result_json_export(tmp_path):
    r = ExperimentResult("figX", "t", columns=("a", "b"))
    r.add_row(1, 2.5)
    r.notes.append("note")
    import json

    path = tmp_path / "figX.json"
    doc = json.loads(r.to_json(path))
    assert doc == json.loads(path.read_text())
    assert doc["columns"] == ["a", "b"]
    assert doc["rows"] == [[1, 2.5]]
    assert doc["notes"] == ["note"]


def test_result_csv_export(tmp_path):
    r = ExperimentResult("figX", "t", columns=("a", "b"))
    r.add_row(1, 2.5)
    r.add_row(3, 4.5)
    path = tmp_path / "figX.csv"
    text = r.to_csv(path)
    lines = text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5"
    assert path.read_text() == text


def test_cli_output_dir(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["table1", "--output-dir", str(out)]) == 0
    assert (out / "table1.json").exists()
    assert (out / "table1.csv").exists()


def test_cli_profile_summarizes_sweep_points(tmp_path, capsys):
    """--obs-dir --profile: every fig13 point exports a profile.json and
    the CLI tabulates the per-point dominant resources — the quick-size
    rendition of the paper's plateau explanation."""
    obs = tmp_path / "telemetry"
    assert main(
        ["fig13", "--quick", "--no-cache", "--obs-dir", str(obs), "--profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "per-point critical-path profiles:" in out
    assert "dominant" in out
    point_dirs = sorted((obs / "fig13").glob("*/profile.json"))
    assert len(point_dirs) == 12  # 6 fractions x 2 systems
    # Even at quick size the staged-fraction sweep shifts dominance
    # from PFS reads toward compute.
    assert "read:pfs" in out and "compute" in out


def test_render_point_profiles_empty_dir(tmp_path):
    from repro.experiments.cli import render_point_profiles

    text = render_point_profiles(tmp_path)
    assert "no <point>/profile.json" in text
