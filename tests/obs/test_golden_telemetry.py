"""The observer's telemetry on small runs, pinned against golden files.

Each golden file holds, for one observed run, the metric registry's
``snapshot()``, the lifecycle spans, the wait intervals and the
completed-flow records.  The test compares a fresh run with it: every
name, every list length and every JSON type must match exactly, and
every number to 1e-9 relative.  ``PYTHONPATH=src python -m
tests.obs.test_golden_telemetry`` rewrites the files.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
from pathlib import Path

import pytest

from repro.obs import Observer
from repro.scenarios import run_contended, run_genomes, run_swarp
from repro.storage import BBMode

_REL = 1e-9
GOLDEN = Path(__file__).parent / "golden"

#: One entry per golden file: its name and the run that produces it.
RUNS = {
    "swarp-private-2": lambda obs: run_swarp(
        bb_mode=BBMode.PRIVATE, n_pipelines=2, observer=obs
    ),
    "swarp-striped-2": lambda obs: run_swarp(
        bb_mode=BBMode.STRIPED, n_pipelines=2, observer=obs
    ),
    "genomes-2chr": lambda obs: run_genomes(n_chromosomes=2, observer=obs),
    **{
        f"contended-{policy}": (
            lambda obs, policy=policy: run_contended(
                n_jobs=6, queue_policy=policy, observer=obs
            )
        )
        for policy in ("fifo", "easy-backfill", "conservative-backfill", "plan")
    },
}


def telemetry(name: str) -> dict:
    """The plain-data telemetry of one observed run."""
    obs = Observer()
    RUNS[name](obs)
    return {
        "registry": obs.registry.snapshot(),
        "spans": [dataclasses.asdict(span) for span in obs.spans],
        "waits": [wait.to_dict() for wait in obs.waits],
        "flows": list(obs.flows),
    }


def _load(name: str) -> dict:
    with gzip.open(GOLDEN / f"{name}.json.gz", "rt") as fh:
        return json.load(fh)


def _differences(got, want, path: str = "") -> list[str]:
    """Every place ``got`` departs from ``want`` (empty when they match)."""
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            d for i, (g, w) in enumerate(zip(got, want))
            for d in _differences(g, w, f"{path}[{i}]")
        ]
    if isinstance(want, float):
        if not math.isclose(got, want, rel_tol=_REL, abs_tol=1e-12) and got != want:
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_telemetry_matches_golden(name):
    # A JSON round trip gives both sides the same types (tuples become
    # lists, ``inf`` stays a float).
    got = json.loads(json.dumps(telemetry(name)))
    assert _differences(got, _load(name)) == []


def test_differences_sees_a_moved_value():
    want = {"a": [1.0, 2], "b": "x"}
    assert _differences({"a": [1.0, 2], "b": "x"}, want) == []
    assert _differences({"a": [1.0 + 1e-6, 2], "b": "x"}, want)
    assert _differences({"a": [1.0, 2.0], "b": "x"}, want)
    assert _differences({"a": [1.0], "b": "x"}, want)


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(RUNS):
        with gzip.GzipFile(GOLDEN / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(telemetry(name), sort_keys=True).encode())
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
