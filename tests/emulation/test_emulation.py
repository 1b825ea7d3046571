"""Tests for the emulation layer: effects, compute service, trials."""

from dataclasses import replace

import numpy as np
import pytest

from repro import des
from repro.config import Config
from repro.emulation import (
    CORI_EFFECTS,
    SUMMIT_EFFECTS,
    SWARP_TRUTH,
    EmulatedComputeService,
    TrialStats,
    effects_for,
    emulate,
    run_trials,
)
from repro.emulation.trials import interference_factor
from repro.platform import HostRole, Platform
from repro.platform.presets import TABLE_I, cori_spec, summit_spec
from repro.platform.spec import RouteSpec
from repro.workflow import Task

SPEED = TABLE_I["cori"]["core_speed"]


# ----------------------------------------------------------------------
# Effects presets
# ----------------------------------------------------------------------
def test_effects_for_dispatch():
    assert effects_for("cori") is CORI_EFFECTS
    assert effects_for("summit") is SUMMIT_EFFECTS
    with pytest.raises(ValueError):
        effects_for("frontier")


def test_striped_is_worst_tier_on_cori():
    """Striped must carry strictly more overhead than private."""
    c = CORI_EFFECTS
    assert c.bb_striped.metadata_service_time > 0
    assert c.bb_private.metadata_service_time == 0
    assert c.bb_striped.interference_sigma > c.bb_private.interference_sigma


def test_onnode_is_most_stable():
    assert (
        SUMMIT_EFFECTS.bb_onnode.interference_sigma
        < CORI_EFFECTS.bb_private.interference_sigma
    )


def test_anomaly_band_well_formed():
    c = CORI_EFFECTS
    assert 0 <= c.striped_anomaly_low < c.striped_anomaly_high <= 1
    assert c.striped_anomaly_factor > 1


def test_truth_flops_scale_with_cori_speed():
    truth = SWARP_TRUTH["resample"]
    assert truth.flops() == pytest.approx(truth.tc1 * SPEED)


# ----------------------------------------------------------------------
# EmulatedComputeService
# ----------------------------------------------------------------------
@pytest.fixture
def emulated():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    svc = EmulatedComputeService(
        plat, ["cn0"], effects=CORI_EFFECTS, truth=SWARP_TRUTH
    )
    return env, svc


def test_truth_overrides_task_flops(emulated):
    env, svc = emulated
    # Task claims huge flops but its group truth says tc1 = 100 s.
    task = Task("r", flops=1e20, cores=1, group="resample")
    assert svc.compute_time(task, "cn0", cores=1) == pytest.approx(100.0)


def test_unknown_group_uses_task_parameters(emulated):
    env, svc = emulated
    task = Task("x", flops=SPEED, cores=1, alpha=0.0, group="mystery")
    assert svc.compute_time(task, "cn0", cores=1) == pytest.approx(1.0)


def test_true_alpha_limits_scaling(emulated):
    env, svc = emulated
    combine = Task("c", flops=0, cores=32, group="combine")
    t1 = svc.compute_time(combine, "cn0", cores=1)
    t32 = svc.compute_time(combine, "cn0", cores=32)
    # alpha = 0.9: 32 cores buy barely 10%.
    assert t32 > 0.85 * t1


def test_beyond8_degradation_applies_to_resample(emulated):
    env, svc = emulated
    resample = Task("r", flops=0, cores=1, group="resample")
    t8 = svc.compute_time(resample, "cn0", cores=8)
    t32 = svc.compute_time(resample, "cn0", cores=32)
    # Amdahl alone would make t32 < t8; degradation flattens/reverses it.
    amdahl_only = 100.0 * (0.2 + 0.8 / 32)
    assert t32 > amdahl_only


def test_requires_effects():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    with pytest.raises(ValueError):
        EmulatedComputeService(plat, ["cn0"], effects=None)


def test_compute_interference_from_busy_cores(emulated):
    env, svc = emulated
    task = Task("r", flops=0, cores=1, group="resample")

    durations = []

    def worker(env, svc):
        allocation = yield svc.acquire_cores("cn0", 1)
        duration = svc.compute_time(task, "cn0", cores=1)
        durations.append(duration)
        yield env.timeout(duration)
        allocation.release()

    for _ in range(4):
        env.process(worker(env, svc))
    env.run()
    # Each of the 4 concurrent workers sees 3 other busy cores.
    expected = 100.0 * (1 + CORI_EFFECTS.compute_interference * 3)
    assert durations == pytest.approx([expected] * 4)


# ----------------------------------------------------------------------
# Trials
# ----------------------------------------------------------------------
def test_run_trials_reproducible():
    values = run_trials(lambda seed: float(seed) ** 2, n_trials=5, base_seed=3)
    again = run_trials(lambda seed: float(seed) ** 2, n_trials=5, base_seed=3)
    assert values.values == again.values


def test_run_trials_distinct_seeds():
    stats = run_trials(lambda seed: float(seed), n_trials=15)
    assert len(set(stats.values)) == 15


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(lambda s: 1.0, n_trials=0)


def test_trial_stats_moments():
    stats = TrialStats(values=(1.0, 2.0, 3.0))
    assert stats.n == 3
    assert stats.mean == pytest.approx(2.0)
    assert stats.std == pytest.approx(1.0)
    assert stats.min == 1.0
    assert stats.max == 3.0
    assert stats.cv == pytest.approx(0.5)
    assert stats.spread == pytest.approx(1.0)


def test_trial_stats_single_value():
    stats = TrialStats(values=(5.0,))
    assert stats.std == 0.0
    assert stats.cv == 0.0


def test_interference_factor_zero_sigma_is_one():
    rng = np.random.default_rng(0)
    assert interference_factor(rng, 0.0) == 1.0


def test_interference_factor_median_near_one():
    rng = np.random.default_rng(0)
    draws = [interference_factor(rng, 0.15) for _ in range(2000)]
    assert np.median(draws) == pytest.approx(1.0, abs=0.02)
    assert all(d > 0 for d in draws)


# ----------------------------------------------------------------------
# emulate
# ----------------------------------------------------------------------
def test_emulate_picks_the_pfs_host_and_uplinks_by_role():
    """No host or system name is assumed: the PFS disks and the BB
    uplinks are found from the host roles."""
    spec = cori_spec(n_compute=1)

    def rename(host: str) -> str:
        return "lustre0" if host == "pfs" else host

    renamed = replace(
        spec,
        hosts=tuple(replace(h, name=rename(h.name)) for h in spec.hosts),
        routes=tuple(
            RouteSpec(rename(r.src), rename(r.dst), r.link_names)
            for r in spec.routes
        ),
    )
    emulated, _ = emulate(renamed, CORI_EFFECTS, None, Config())
    (pfs,) = [h for h in emulated.hosts if h.role is HostRole.PFS]
    assert pfs.name == "lustre0"
    assert {d.read_bandwidth for d in pfs.disks} == {
        CORI_EFFECTS.pfs_disk_bandwidth
    }
    penalties = {l.name: l.concurrency_penalty for l in emulated.links}
    assert penalties["cn0-bbnet"] == CORI_EFFECTS.bb_uplink_concurrency_penalty
    assert all(
        p == 0.0 for name, p in penalties.items() if name != "cn0-bbnet"
    )


def test_emulate_scales_the_local_bb_uplinks_by_the_first_draw():
    spec = summit_spec(n_compute=1)
    emulated, _ = emulate(spec, SUMMIT_EFFECTS, 0, Config())
    sigma = SUMMIT_EFFECTS.bb_onnode.interference_sigma
    factor = interference_factor(np.random.default_rng(0), sigma)
    for nominal, link in zip(spec.links, emulated.links):
        expected = nominal.bandwidth
        if link.name.endswith("-pcie"):
            expected = nominal.bandwidth * (1.0 / factor)
        assert link.bandwidth == expected
