"""One contract per exported format: a validator passes exactly what its reader loads.

``validate_profile_doc`` asks :meth:`Profile.from_doc`,
``validate_live_dir`` returns :func:`read_live_dir`'s problems (which
``repro-obs watch``/``report`` render from), and
``validate_events_ndjson`` checks its header through
:func:`read_events`.  Every malformed input the other obs, profile and
live-sweep tests feed a validator is fed to the reader here too, plus
regressions for inputs the two used to disagree on.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs import LiveBus, Observer
from repro.obs.cli import main as obs_cli
from repro.obs.live import LIVE_SCHEMA, read_live_dir
from repro.obs.log import LOG_SCHEMA, read_events
from repro.obs.validate import (
    validate_events_ndjson,
    validate_live_dir,
    validate_profile_doc,
)
from repro.profile import Profile, ProfileError, Segment, TaskBreakdown
from repro.sweep import SweepSpec, run_sweep


def _profile_doc():
    return Profile(
        "wf",
        10.0,
        [
            Segment(0.0, 4.0, "read:pfs", task="a"),
            Segment(4.0, 9.0, "compute", task="a"),
            Segment(9.0, 10.0, "write:bb", task="a"),
        ],
        tasks=[TaskBreakdown(task="a", end=10.0, waits={"cores": 0.5})],
        waits=[{"task": "a", "cause": "cores", "start": 0.0, "end": 0.5}],
    ).to_doc()


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _drop(key):
    return lambda doc: doc.pop(key)


def _segment(i, key, value=None):
    def edit(doc):
        if value is None:
            doc["critical_path"][i].pop(key)
        else:
            doc["critical_path"][i][key] = value
    return edit


#: Each edit turns the valid document into a malformed one.  The first
#: six tamper as test_exporters/test_model do; the rest cover every
#: shape from_doc rejects.  Regressions: from_doc used to load "wait
#: cause vibes", "empty attribution" and "critical path out of order".
MALFORMED_PROFILES = {
    "attribution bumped": lambda d: d["attribution"].__setitem__("compute", 15.0),
    "attribution 99": lambda d: d["attribution"].__setitem__("compute", 99.0),
    "old schema": _set("schema", "repro.profile/0"),
    "future schema": _set("schema", "repro.profile/999"),
    "first segment starts early": _segment(0, "start", -1.0),
    "wait cause vibes": _set("waits", [{"task": "t", "cause": "vibes", "start": 0, "end": 1}]),
    "wait cause not a string": _set("waits", [{"task": "t", "cause": ["cores"]}]),
    "empty attribution": _set("attribution", {}),
    "no attribution": _drop("attribution"),
    "attribution merges keys": _set("attribution", {"compute": 10.0}),
    "attribution not numeric": lambda d: d["attribution"].__setitem__("compute", "5"),
    "no makespan": _drop("makespan"),
    "makespan not numeric": _set("makespan", "10"),
    "negative makespan": _set("makespan", -1.0),
    "makespan NaN": _set("makespan", float("nan")),
    "makespan infinite": _set("makespan", float("inf")),
    "segment end NaN": _segment(2, "end", float("nan")),
    "attribution NaN": lambda d: d["attribution"].__setitem__("compute", float("nan")),
    "critical path out of order": lambda d: d["critical_path"].reverse(),
    "no critical path": _drop("critical_path"),
    "critical path not an array": _set("critical_path", {}),
    "segment not an object": lambda d: d["critical_path"].__setitem__(0, 5),
    "segment without start": _segment(0, "start"),
    "segment without resource": _segment(0, "resource"),
    "segment with empty resource": _segment(0, "resource", ""),
    "segment ends before it starts": _segment(1, "end", 3.0),
    "wait not an object": _set("waits", [5]),
    "waits not an array": _set("waits", 5),
    "task without a name": lambda d: d["tasks"][0].pop("task"),
    "task not an object": _set("tasks", [1]),
}


def _malformed(name):
    doc = copy.deepcopy(_profile_doc())
    MALFORMED_PROFILES[name](doc)
    return doc


# ----------------------------------------------------------------------
# Profile documents
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(MALFORMED_PROFILES))
def test_profile_validator_fails_exactly_when_from_doc_raises(name):
    doc = _malformed(name)
    with pytest.raises(ProfileError) as raised:
        Profile.from_doc(doc)
    assert validate_profile_doc(doc) == [f"profile: {raised.value}"]


@pytest.mark.parametrize("doc", [[1], "profile", None, {"schema": "repro.profile/0"}])
def test_non_profile_documents_fail_both(doc):
    with pytest.raises(ProfileError) as raised:
        Profile.from_doc(doc)
    assert validate_profile_doc(doc) == [f"profile: {raised.value}"]


def test_valid_profile_passes_both():
    doc = _profile_doc()
    assert validate_profile_doc(doc) == []
    assert Profile.from_doc(doc).to_doc() == doc


def _run_cli(module, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", module, *map(str, args)],
        env=env, capture_output=True, text=True,
    )


def test_profile_cli_reports_missing_makespan_without_traceback(tmp_path):
    """Regression: ``repro-profile`` on a profile.json without a makespan
    died with a KeyError traceback."""
    (tmp_path / "profile.json").write_text(json.dumps(_malformed("no makespan")))
    done = _run_cli("repro.profile", tmp_path)
    assert done.returncode != 0
    assert "makespan" in done.stderr
    assert "Traceback" not in done.stderr


def test_both_clis_reject_waits_that_are_not_an_array_without_traceback(tmp_path):
    """Regression: both CLIs died with a TypeError traceback here."""
    (tmp_path / "profile.json").write_text(json.dumps(_malformed("waits not an array")))
    for done in (_run_cli("repro.obs", tmp_path), _run_cli("repro.profile", tmp_path)):
        assert done.returncode != 0
        assert "Traceback" not in done.stderr, done.stderr


# ----------------------------------------------------------------------
# Event log (repro.obs.log/1)
# ----------------------------------------------------------------------
#: Regression: read_events raised AttributeError on the array header.
HEADER_FAULTS = {
    "empty stream": "",
    "wrong header": '{"schema": "wrong/1"}\n',
    "array header": "[1]\n",
    "record not an object": json.dumps({"schema": LOG_SCHEMA}) + "\n5\n",
}


@pytest.mark.parametrize("name", sorted(HEADER_FAULTS))
def test_events_validator_fails_exactly_when_read_events_raises(tmp_path, name):
    path = tmp_path / "events.ndjson"
    path.write_text(HEADER_FAULTS[name])
    with pytest.raises(ValueError) as raised:
        read_events(path)
    assert validate_events_ndjson(path) == [f"events: {raised.value}"]


def test_envelope_checks_are_the_validators_own(tmp_path):
    """A well-headed stream loads; only the per-record envelope (which
    read_events does not define) is left to the validator."""
    path = tmp_path / "events.ndjson"
    path.write_text(
        json.dumps({"schema": LOG_SCHEMA}) + "\n"
        + json.dumps({"sim_time": -1.0, "component": "wms", "event": "x", "fields": {}})
        + "\n"
    )
    assert len(read_events(path)) == 1
    assert any("negative sim_time" in e for e in validate_events_ndjson(path))


# ----------------------------------------------------------------------
# Live directories (repro.obs.live/1)
# ----------------------------------------------------------------------
def _clock():
    ticks = iter(range(10**6))
    return lambda: 100.0 + next(ticks)


def _violations(path):
    header = json.dumps({"schema": LIVE_SCHEMA})
    (path / "snapshots.ndjson").write_text(
        header + "\n"
        + json.dumps({"seq": 2, "ts": 1.0, "counters": {}, "gauges": {},
                      "series": {}, "dropped": 0}) + "\n"
        + json.dumps({"seq": 2, "ts": 2.0, "counters": {}, "gauges": {},
                      "series": {}, "dropped": -1}) + "\n"
    )
    (path / "heartbeat.json").write_text(
        json.dumps({"schema": LIVE_SCHEMA, "ts": "soon", "seq": 2, "closed": "maybe"})
    )


def _mid_flight(path):
    bus = LiveBus(path, flush_every=1, clock=_clock())
    Observer(bus=bus)
    bus.push({"kind": "event", "i": 0})
    with (path / "events.ndjson").open("a") as fh:
        fh.write('{"kind": "ev')


def _heartbeat_not_json(path):
    _mid_flight(path)
    (path / "heartbeat.json").write_text("{not json")


def _finished_sweep(path):
    spec = SweepSpec.cartesian("demo", "tests.sweep.points:square", axes={"x": [1, 2]})
    run_sweep(spec, live_dir=path)


#: name -> (how to build it, whether it is invalid).  Regression: watch
#: died with a JSONDecodeError traceback (exit 1) on "heartbeat not JSON".
LIVE_DIRS = {
    "empty directory": (lambda path: None, True),
    "seq, dropped, ts and closed violations": (_violations, True),
    "heartbeat not JSON": (_heartbeat_not_json, True),
    "mid-flight run": (_mid_flight, False),
    "finished sweep": (_finished_sweep, False),
}


@pytest.mark.parametrize("name", sorted(LIVE_DIRS))
def test_live_validator_watch_and_report_share_one_reader(tmp_path, capsys, name):
    make, invalid = LIVE_DIRS[name]
    path = tmp_path / "live"
    path.mkdir()
    make(path)
    live = read_live_dir(path)
    assert bool(live.problems) is invalid
    assert validate_live_dir(path) == live.problems
    assert obs_cli(["watch", "--once", str(path)]) == (2 if invalid else 0)
    err = capsys.readouterr().err
    assert all(problem in err for problem in live.problems)
    if invalid:
        assert obs_cli(["report", str(path), "-o", str(tmp_path / "r.html")]) == 2
        assert not (tmp_path / "r.html").exists()


def test_violations_are_collected_not_first_only(tmp_path):
    _violations(tmp_path)
    assert len(read_live_dir(tmp_path).problems) == 4
