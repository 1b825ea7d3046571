"""The profiler's core contract: attribution sums to the makespan.

The acceptance criterion is explicit — within relative 1e-9 on SWarp in
all three BB configurations and on the full 1000Genomes case study —
and the invariant is enforced at two levels: by construction in the
backward walk, and again by :class:`repro.profile.Profile` itself.
"""

import time

import pytest

from repro.obs import Observer
from repro.profile import UNATTRIBUTED, build_profile
from repro.scenarios import run_genomes, run_swarp
from repro.storage.burst_buffer import BBMode
from repro.traces.events import ExecutionTrace, TaskRecord
from tests.profile.traces import chain_trace

RTOL = 1e-9


def _profile_for(scenario_fn):
    obs = Observer()
    result = scenario_fn(obs)
    profile = build_profile(result.trace, observer=obs)
    return result, profile


@pytest.mark.parametrize(
    "name,scenario",
    [
        ("private", lambda o: run_swarp(bb_mode=BBMode.PRIVATE, observer=o)),
        ("striped", lambda o: run_swarp(bb_mode=BBMode.STRIPED, observer=o)),
        ("onnode", lambda o: run_swarp(system="summit", observer=o)),
    ],
)
def test_attribution_sums_to_makespan_on_swarp(name, scenario):
    result, profile = _profile_for(scenario)
    total = sum(profile.attribution.values())
    assert total == pytest.approx(result.trace.makespan, rel=RTOL)
    assert profile.makespan == result.trace.makespan


def test_attribution_sums_to_makespan_on_full_genomes():
    result, profile = _profile_for(
        lambda o: run_genomes(n_chromosomes=22, observer=o)
    )
    total = sum(profile.attribution.values())
    assert total == pytest.approx(result.trace.makespan, rel=RTOL)
    # 903-task-scale run: the critical path must still be contiguous
    # (Profile validates this on construction; spot-check the ends).
    path = profile.critical_path
    assert path[0].start == pytest.approx(0.0, abs=RTOL)
    assert path[-1].end == pytest.approx(profile.makespan, rel=RTOL)


def test_critical_path_partitions_makespan():
    _, profile = _profile_for(lambda o: run_swarp(observer=o))
    path = profile.critical_path
    for previous, current in zip(path, path[1:]):
        assert current.start == pytest.approx(previous.end, rel=RTOL, abs=RTOL)
    assert all(s.duration >= 0 for s in path)


def test_swarp_critical_path_names_expected_resources():
    _, profile = _profile_for(lambda o: run_swarp(observer=o))
    resources = set(profile.attribution)
    assert "compute" in resources
    assert "stage-in" in resources
    assert any(r.startswith("read:") for r in resources)
    assert any(r.startswith("write:") for r in resources)


def test_queueing_attributed_to_occupying_task():
    """Contended genomes run: queue time threads through the occupant.

    With 22 chromosomes on 8 hosts, tasks queue for cores.  The
    resource-aware walk attributes that time to the occupying tasks'
    compute/reads, so ``wait:cores`` never dominates the attribution
    while per-task breakdowns still expose the queueing.
    """
    obs = Observer()
    result = run_genomes(n_chromosomes=22, observer=obs)
    profile = build_profile(result.trace, observer=obs)
    assert "wait:cores" not in profile.attribution
    queued = [t for t in profile.tasks if t.waits.get("cores", 0.0) > 0]
    assert queued, "expected at least one task to queue for cores"
    assert any(w["cause"] == "cores" for w in profile.waits)


def test_trace_only_profile_marks_waits_unattributed_or_routes_them():
    """Profiling a bare trace (no observer) must still satisfy the
    invariant — resource waits either route through occupants or land
    in the UNATTRIBUTED bucket, never vanish."""
    result = run_swarp(n_pipelines=2)
    profile = build_profile(result.trace)
    total = sum(profile.attribution.values())
    assert total == pytest.approx(result.trace.makespan, rel=RTOL)
    for resource in profile.attribution:
        assert not resource.startswith("wait:") or resource in (
            UNATTRIBUTED,
            "wait:dependency",
        )


def test_task_breakdowns_cover_every_task():
    obs = Observer()
    result = run_swarp(observer=obs)
    profile = build_profile(result.trace, observer=obs)
    assert {t.task for t in profile.tasks} == set(result.trace.records)
    for breakdown in profile.tasks:
        record = result.trace.records[breakdown.task]
        assert breakdown.start == record.start
        assert breakdown.end == record.end
        assert sum(breakdown.phases.values()) == pytest.approx(
            record.end - record.start, rel=1e-9, abs=1e-12
        )


def test_empty_trace_profiles_to_empty_path():
    profile = build_profile(ExecutionTrace("empty"))
    assert profile.makespan == 0.0
    assert profile.critical_path == []
    assert profile.attribution == {}


def test_synthetic_chain_attribution():
    """Hand-built two-task chain: exact, inspectable attribution."""
    trace = ExecutionTrace("chain")
    trace.add_record(
        TaskRecord(
            name="a", group="g", host="cn0", cores=1, ready=0.0,
            start=0.0, read_start=0.0, read_end=2.0,
            compute_end=7.0, write_end=8.0, end=8.0,
        )
    )
    trace.add_record(
        TaskRecord(
            name="b", group="g", host="cn0", cores=1, ready=8.0,
            start=8.0, read_start=8.0, read_end=9.0,
            compute_end=12.0, write_end=12.0, end=12.0,
        )
    )
    profile = build_profile(trace)
    assert profile.makespan == 12.0
    assert profile.attribution == {"compute": 8.0, "read": 3.0, "write": 1.0}


def test_profile_is_not_quadratic_on_a_4000_stage_chain():
    """A 4,000-stage chain (5,333 records, ~16k I/O ops).

    A profiler that scans the trace per walk step took 24.5 s on this
    trace on a shared 2-vCPU machine (1.5 s at 1,000 stages, 6.4 s at
    2,000); the indexed walk takes about 0.15 s.  The 2 s bound catches
    a return to quadratic cost with a wide margin for a slow runner.
    """
    trace, waits = chain_trace(4000)
    started = time.perf_counter()
    profile = build_profile(trace, waits=waits)
    elapsed = time.perf_counter() - started
    assert profile.critical_path[-1].task == "t03999"
    assert elapsed < 2.0, f"build_profile took {elapsed:.2f} s on 4,000 stages"
