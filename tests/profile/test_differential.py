"""The indexed profiler against the scan-per-step oracle.

:func:`repro.profile.build_profile` indexes the trace once and answers
each walk step from the index; ``tests/profile/oracle.py`` is the
profiler as it was before, scanning the whole trace at every step.  The two must
produce exactly equal documents — same segments, same floats, same
tie-breaks — on simulated runs, on a long chain, on hand-built traces
that hit every tie rule, and on randomized traces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observer
from repro.obs.waits import WaitCause, WaitInterval
from repro.profile import build_profile
from repro.scenarios import run_genomes, run_swarp
from repro.storage.burst_buffer import BBMode
from repro.traces import ExecutionTrace, IOOperation, TaskRecord
from tests.profile import oracle
from tests.profile.traces import chain_trace
from tests.test_roundtrip_properties import execution_traces


def _outcome(profiler, trace, waits):
    """The profile document, or the error the profiler raised."""
    try:
        return profiler(trace, waits=waits).to_doc()
    except Exception as exc:  # the oracle's failures must match too
        return (type(exc).__name__, str(exc))


def assert_matches_oracle(trace, waits=None):
    expected = _outcome(oracle.build_profile, trace, waits)
    assert _outcome(build_profile, trace, waits) == expected
    return expected


# ----------------------------------------------------------------------
# Simulated runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scenario",
    [
        lambda o: run_swarp(bb_mode=BBMode.PRIVATE, observer=o),
        lambda o: run_swarp(bb_mode=BBMode.STRIPED, observer=o),
        lambda o: run_swarp(system="summit", observer=o),
        # Contended: 22 chromosomes on 8 hosts queue for cores.
        lambda o: run_genomes(n_chromosomes=22, observer=o),
        # One point of the quick fig13 sweep.
        lambda o: run_genomes(
            system="cori", input_fraction=0.6, n_chromosomes=6,
            n_compute=8, emulated=False, observer=o,
        ),
    ],
    ids=["swarp-private", "swarp-striped", "swarp-onnode", "genomes-contended",
         "fig13-point"],
)
def test_simulated_runs_match_oracle(scenario):
    obs = Observer()
    result = scenario(obs)
    assert_matches_oracle(result.trace, obs.waits)
    assert_matches_oracle(result.trace)


def test_chain_matches_oracle():
    trace, waits = chain_trace(300)
    doc = assert_matches_oracle(trace, waits)
    resources = set(doc["attribution"])
    assert {"stage-in", "compute", "wait:cores", "wait:memory"} <= resources


# ----------------------------------------------------------------------
# Hand-built traces for the tie rules
# ----------------------------------------------------------------------
def _record(trace, name, host, start, end, group="g", ready=None):
    trace.add_record(
        TaskRecord(
            name=name, group=group, host=host, cores=1,
            ready=start if ready is None else ready,
            start=start, read_start=start, read_end=start,
            compute_end=end, write_end=end, end=end,
        )
    )


def test_equal_end_times_across_hosts():
    trace = ExecutionTrace("ties")
    # Three candidates end at 5 on different hosts; the latest starter wins.
    _record(trace, "a", "h0", 0.0, 5.0)
    _record(trace, "b", "h1", 1.0, 5.0)
    _record(trace, "c", "h2", 1.0, 5.0)
    _record(trace, "d", "h0", 5.0, 9.0)
    # d2 queues on h3 behind two same-start occupants (name breaks the tie)
    # while another host's record also ends at the start instant.
    _record(trace, "x", "h3", 5.0, 10.0)
    _record(trace, "y", "h3", 5.0, 10.0)
    _record(trace, "w", "h4", 9.5, 10.0)
    _record(trace, "d2", "h3", 10.0, 14.0, ready=9.0)
    doc = assert_matches_oracle(trace)
    assert [s["task"] for s in doc["critical_path"]] == ["c", "c", "y", "d2"]


def test_end_times_within_tolerance_of_the_cursor():
    """Ends a few ulps-worth off the cursor, on either side, still tie."""
    trace = ExecutionTrace("near")
    _record(trace, "early", "h0", 1.0, 5.0 - 3e-9)
    _record(trace, "late", "h1", 0.5, 5.0 + 3e-9)
    _record(trace, "far", "h2", 2.0, 5.0 - 3e-8)
    _record(trace, "t", "h0", 5.0, 9.0)
    _record(trace, "occ", "h3", 5.0 + 1e-9, 9.0 + 4e-9)
    _record(trace, "q", "h3", 9.0 + 2e-9, 12.0, ready=9.0)
    doc = assert_matches_oracle(trace)
    tasks = [s["task"] for s in doc["critical_path"]]
    assert tasks == ["early", "early", "occ", "q"]


def test_zero_duration_records():
    trace = ExecutionTrace("zeros")
    _record(trace, "a", "h0", 0.0, 4.0)
    # A later-starting zero-duration record ties on end time; the record
    # that actually ran wins.
    _record(trace, "zz", "h0", 4.0, 4.0)
    _record(trace, "b", "h0", 4.0, 6.0)
    # Only zero-duration candidates: the latest starter wins.
    _record(trace, "z1", "h1", 6.0, 6.0)
    _record(trace, "z2", "h1", 6.0, 6.0)
    _record(trace, "c", "h1", 6.0, 8.0)
    assert_matches_oracle(trace)


def _stage_op(trace, task, kind, start, end):
    trace.log_io(IOOperation(task, f"{task}.dat", "bb", kind, 1.0, start, end))


def test_staging_found_only_by_event():
    """Staging found only by a stage op: the records' groups are plain."""
    trace = ExecutionTrace("staging")
    _record(trace, "in", "h0", 0.0, 3.0)
    _record(trace, "mid", "h0", 3.0, 5.0)
    _record(trace, "out", "h0", 5.0, 8.0)
    _record(trace, "both", "h0", 8.0, 9.0)
    _record(trace, "flat", "h0", 9.0, 9.0)
    _stage_op(trace, "in", "stage_in", 1.0, 2.0)
    _stage_op(trace, "out", "stage_out", 6.0, 7.0)
    # The first stage op of a task decides its kind.
    _stage_op(trace, "both", "stage_out", 8.5, 8.6)
    _stage_op(trace, "both", "stage_in", 8.6, 9.0)
    _stage_op(trace, "flat", "stage_in", 9.0, 9.0)
    doc = assert_matches_oracle(trace)
    assert doc["attribution"] == {
        "stage-in": 3.0, "compute": 2.0, "stage-out": 4.0,
    }


def test_binding_io_ties():
    trace = ExecutionTrace("io")
    trace.add_record(
        TaskRecord(
            name="t", group="g", host="h0", cores=1, ready=0.0,
            start=0.0, read_start=0.0, read_end=2.0,
            compute_end=3.0, write_end=5.0, end=5.0,
        )
    )
    # Equal (end, file): the first op stays binding.
    trace.log_io(IOOperation("t", "f", "pfs", "read", 1.0, 0.0, 2.0))
    trace.log_io(IOOperation("t", "f", "bb", "read", 1.0, 0.5, 2.0))
    # Equal end, larger file name wins.
    trace.log_io(IOOperation("t", "a", "pfs", "write", 1.0, 3.0, 5.0))
    trace.log_io(IOOperation("t", "b", "bb", "write", 1.0, 3.0, 5.0))
    trace.log_io(IOOperation("other", "z", "x", "write", 1.0, 3.0, 9.0))
    doc = assert_matches_oracle(trace)
    assert set(doc["attribution"]) == {"read:pfs", "compute", "write:bb"}


def test_trimmed_trace_without_releaser():
    trace = ExecutionTrace("trimmed")
    # Ready at 3, started at 10, and nothing ends at 10 or at 3.
    _record(trace, "t", "h0", 10.0, 12.0, ready=3.0)
    doc = assert_matches_oracle(trace)
    assert doc["attribution"]["wait:dependency"] == 3.0


def test_waits_overlapping_a_gap():
    trace = ExecutionTrace("waits")
    _record(trace, "p", "h1", 0.0, 2.0)
    _record(trace, "t", "h0", 10.0, 12.0, ready=2.0)
    waits = [
        {"task": "t", "cause": "cores", "start": 1.0, "end": 4.0, "detail": "h0"},
        {"task": "t", "cause": "memory", "start": 3.0, "end": 6.0},
        {"task": "t", "cause": "dependency", "start": 0.0, "end": 10.0},
        {"task": "t", "cause": "bb_capacity", "start": 9.0, "end": 20.0},
        {"task": "t", "cause": "cores", "start": 7.0, "end": 7.0},
        # Same interval, two causes: the first recorded one is charged.
        {"task": "t", "cause": "memory", "start": 6.5, "end": 8.0},
        {"task": "t", "cause": "cores", "start": 6.5, "end": 8.0},
        {"task": "p", "cause": "memory", "start": 0.0, "end": 9.0},
    ]
    doc = assert_matches_oracle(trace, waits)
    assert doc["attribution"]["wait:unattributed"] == 1.5
    assert doc["attribution"]["wait:memory"] == 4.5
    # The same gap from WaitInterval objects, as an observer records them.
    intervals = [
        WaitInterval(w["task"], WaitCause(w["cause"]), w["start"], w["end"],
                     w.get("detail", ""))
        for w in waits
    ]
    assert assert_matches_oracle(trace, intervals) == doc


# ----------------------------------------------------------------------
# Randomized traces
# ----------------------------------------------------------------------
@given(execution_traces())
@settings(max_examples=100, deadline=None)
def test_random_traces_match_oracle(trace):
    assert_matches_oracle(trace)


_grid = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 5.0])


@st.composite
def tied_traces(draw):
    """Small traces on a coarse time grid, so ends, starts and waits tie."""
    trace = ExecutionTrace("tied")
    names = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, unique=True))
    for name in names:
        a, b, c, d = sorted(draw(st.lists(_grid, min_size=4, max_size=4)))
        trace.add_record(
            TaskRecord(
                name=name,
                group=draw(st.sampled_from(["g", "stage_in", "stage_out"])),
                host=draw(st.sampled_from(["h0", "h1"])),
                cores=1, ready=draw(st.none() | _grid),
                start=a, read_start=a, read_end=b,
                compute_end=c, write_end=d, end=d,
            )
        )
    tasks = st.sampled_from(names + ["ghost"])
    for _ in range(draw(st.integers(0, 12))):
        begin, end = sorted([draw(_grid), draw(_grid)])
        trace.log_io(
            IOOperation(
                task=draw(tasks), file=draw(st.sampled_from("xyz")),
                service=draw(st.sampled_from(["pfs", "bb"])),
                kind=draw(
                    st.sampled_from(["read", "write", "stage_in", "stage_out"])
                ),
                size=1.0, start=begin, end=end,
            )
        )
    waits = []
    for _ in range(draw(st.integers(0, 6))):
        begin, end = sorted([draw(_grid), draw(_grid)])
        waits.append({
            "task": draw(tasks),
            "cause": draw(st.sampled_from([c.value for c in WaitCause])),
            "start": begin,
            "end": end,
        })
    return trace, waits


@given(tied_traces())
@settings(max_examples=300, deadline=None)
def test_tied_random_traces_match_oracle(case):
    trace, waits = case
    assert_matches_oracle(trace, waits)
