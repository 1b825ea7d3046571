"""Determinism regression: the property the lint rules protect.

Running the same scenario with the same seed twice must produce bitwise
identical results — same makespan, same number of events, same event
sequence.  If this test starts failing, something nondeterministic
(wall clock, global RNG, hash-ordered iteration) crept into the
simulation path; ``python -m repro.lint src/`` should point at it.
"""

from __future__ import annotations

from repro.scenarios import run_swarp
from repro.storage import BBMode


def _run_once(seed: int):
    return run_swarp(
        system="cori",
        bb_mode=BBMode.PRIVATE,
        input_fraction=0.5,
        n_pipelines=2,
        cores_per_task=4,
        emulated=True,
        seed=seed,
    )


def test_same_seed_same_trace():
    first = _run_once(seed=7)
    second = _run_once(seed=7)
    assert first.makespan == second.makespan
    assert first.trace.records == second.trace.records
    assert len(first.trace.events) == len(second.trace.events)
    assert [
        (e.time, e.kind, e.task) for e in first.trace.events
    ] == [(e.time, e.kind, e.task) for e in second.trace.events]


def test_different_seed_different_noise():
    # Sanity check that the seed actually reaches the noise model.
    assert _run_once(seed=1).makespan != _run_once(seed=2).makespan


def test_simple_model_deterministic_without_seed():
    # The non-emulated simulator has no stochastic inputs at all.
    a = run_swarp(system="summit", input_fraction=1.0, cores_per_task=8)
    b = run_swarp(system="summit", input_fraction=1.0, cores_per_task=8)
    assert a.makespan == b.makespan
    assert len(a.trace.events) == len(b.trace.events)
