"""The emulator is the simple model plus named effects.

Figures 10 and 11 report the simple model's error against the emulator,
so every difference between the two run paths must be one of the
effects in :class:`~repro.emulation.EmulationEffects`.  With every one
of them zeroed (zero latencies and metadata times, infinite stream
caps, sigma 0, no per-stripe latency, uplink penalty, compute
interference or beyond-8 degradation, no PFS disk override, and an
anomaly band outside [0, 1]) an emulated SWarp run must be bit-identical
to the simple model, every ``TaskRecord`` field and every
``IOOperation`` included.

One difference is left that no effect switches off, the *true alpha*
effect: the emulated compute service runs each task with its true tc1
and Amdahl alpha (``SWARP_TRUTH``), where the simple model assumes
perfect speedup.  The simple side below gets the same by running the
truth's flops and alphas with ``Config(use_amdahl_alpha=True)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.emulation import SWARP_TRUTH, EmulationEffects
from repro.emulation.calibration import TierEffects
from repro.platform.presets import cori_spec, summit_spec
from repro.scenarios import run_swarp
from repro.simulator import _execute
from repro.storage import BBMode
from repro.workflow.model import Workflow
from repro.workflow.swarp import make_swarp

_NULL_TIER = TierEffects(
    read_latency=0.0,
    write_latency=0.0,
    stream_cap=float("inf"),
    interference_sigma=0.0,
    metadata_service_time=0.0,
)

NULL_EFFECTS = EmulationEffects(
    pfs=_NULL_TIER,
    bb_private=_NULL_TIER,
    bb_striped=_NULL_TIER,
    bb_onnode=_NULL_TIER,
    per_stripe_latency=0.0,
    bb_uplink_concurrency_penalty=0.0,
    compute_interference=0.0,
    beyond8_degradation=0.0,
    pfs_disk_bandwidth=None,
    striped_anomaly_low=2.0,
    striped_anomaly_high=3.0,
)

#: (system, BB mode): Cori private and striped, Summit on-node.
SETUPS = (
    ("cori", BBMode.PRIVATE),
    ("cori", BBMode.STRIPED),
    ("summit", BBMode.STRIPED),
)


def _preset(system: str):
    if system == "cori":
        return cori_spec(n_compute=1, n_bb_nodes=2)
    return summit_spec(n_compute=1)


def _with_true_alphas(workflow: Workflow) -> Workflow:
    """``workflow`` with each task's true flops and alpha (the true alpha
    effect, moved onto the simple model's side)."""
    tasks = []
    for task in workflow:
        truth = SWARP_TRUTH.get(task.group)
        if truth is not None:
            task = replace(task, flops=truth.flops(), alpha=truth.alpha)
        tasks.append(task)
    return Workflow(workflow.name, tasks)


def _emulated(system, mode, fraction, pipelines, cores, seed):
    return run_swarp(
        system=system,
        bb_mode=mode,
        input_fraction=fraction,
        n_pipelines=pipelines,
        cores_per_task=cores,
        emulated=True,
        seed=seed,
        effects=NULL_EFFECTS,
    )


def _simple(system, mode, fraction, pipelines, cores, use_amdahl_alpha):
    workflow = _with_true_alphas(
        make_swarp(n_pipelines=pipelines, cores_per_task=cores)
    )
    config = Config(
        bb_mode=mode,
        input_fraction=fraction,
        intermediate_fraction=1.0,
        output_fraction=0.0,
        use_amdahl_alpha=use_amdahl_alpha,
    )
    # An emulated run copies staged files disk to disk from the PFS.
    return _execute(_preset(system), workflow, config, stage_in_external=False)


def _schedule(trace):
    return sorted(trace.records.values(), key=lambda r: r.name), list(
        trace.io_operations
    )


@settings(max_examples=40, deadline=None)
@given(
    setup=st.sampled_from(SETUPS),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    pipelines=st.integers(min_value=1, max_value=4),
    cores=st.integers(min_value=1, max_value=32),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
)
def test_null_effects_emulation_is_the_simple_model(
    setup, fraction, pipelines, cores, seed: Optional[int]
):
    system, mode = setup
    emulated = _emulated(system, mode, fraction, pipelines, cores, seed)
    simple = _simple(system, mode, fraction, pipelines, cores, True)

    # Null effects leave the preset platform as it is.
    assert emulated.platform.spec == _preset(system)
    records, io = _schedule(emulated.trace)
    simple_records, simple_io = _schedule(simple.trace)
    assert records == simple_records
    assert io == simple_io


def test_true_alphas_are_the_effect_null_effects_keep():
    """Against the default (perfect speedup) config the runs differ."""
    system, mode = SETUPS[0]
    emulated = _emulated(system, mode, 1.0, 2, 32, None)
    perfect = _simple(system, mode, 1.0, 2, 32, False)
    perfect_records = perfect.trace.records
    resample = [
        r for r in emulated.trace.records.values() if r.group == "resample"
    ]
    assert resample
    for record in resample:
        twin = perfect_records[record.name]
        assert (
            record.compute_end - record.read_end
            > twin.compute_end - twin.read_end
        )
