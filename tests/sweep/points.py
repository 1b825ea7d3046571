"""Importable point functions for sweep tests.

Worker processes resolve point functions by dotted reference, so the
functions under test must live in an importable module — closures and
test-local lambdas cannot cross the process boundary.
"""

from __future__ import annotations

import os
from pathlib import Path


def square(params):
    return params["x"] * params["x"]


def tupled(params):
    """Returns tuples/nested structure to exercise canonicalization."""
    return {"pair": (params["x"], params["x"] + 1), "one": (1,)}


def boom(params):
    raise RuntimeError(f"boom on {params['x']}")


def unjsonable(params):
    return {"bad": {1, 2}}


def dies(params):
    """Point ``x=2`` exits without a result (as on a segfault/OOM kill)."""
    if params["x"] == 2:
        os._exit(1)
    return params["x"]


def worker_pid(params):
    return os.getpid()


def writes_obs(params, obs_dir=None):
    if obs_dir is not None:
        Path(obs_dir, "marker.txt").write_text(str(params["x"]))
    return params["x"]
