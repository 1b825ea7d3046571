#!/usr/bin/env python3
"""Regenerate the figure outputs and compare them with ``results/``.

    python3 scripts/check_figures.py [ID ...]

Every ``results/<id>.json`` (or only the given ids) is regenerated
uncached, one ``python -m repro.experiments <id> --no-cache`` child at a
time, into a temporary directory, and compared with the committed file:

* the same keys, and lists of the same lengths;
* strings, integers, booleans and nulls exactly;
* floats at 1e-9 relative, with NaN equal to NaN.

It prints each figure's regeneration time and every difference found,
and exits 1 if any output differs or fails to regenerate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
REL_TOL = 1e-9


def differences(want, got, path: str = "$") -> list[str]:
    """Every place where ``got`` does not match ``want``, as messages."""
    if type(want) is not type(got):
        return [f"{path}: {got!r} ({type(got).__name__}) != {want!r} "
                f"({type(want).__name__})"]
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        found = []
        for key in want:
            found += differences(want[key], got[key], f"{path}.{key}")
        return found
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        found = []
        for i, (w, g) in enumerate(zip(want, got)):
            found += differences(w, g, f"{path}[{i}]")
        return found
    if isinstance(want, float):
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if want != got:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def regenerate(experiment_id: str, out_dir: Path) -> float:
    """Run one experiment uncached into ``out_dir``; return its seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.experiments", experiment_id,
         "--output-dir", str(out_dir), "--no-cache"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "ids", nargs="*",
        help="experiment ids to check (default: every results/*.json)",
    )
    args = parser.parse_args(argv)
    ids = args.ids or sorted(p.stem for p in RESULTS.glob("*.json"))
    failed = []
    total = 0.0
    with tempfile.TemporaryDirectory(prefix="check-figures-") as tmp:
        out_dir = Path(tmp)
        for experiment_id in ids:
            try:
                seconds = regenerate(experiment_id, out_dir)
            except subprocess.CalledProcessError as error:
                print(f"{experiment_id}: regeneration failed ({error})")
                failed.append(experiment_id)
                continue
            total += seconds
            want = json.loads((RESULTS / f"{experiment_id}.json").read_text())
            got = json.loads((out_dir / f"{experiment_id}.json").read_text())
            found = differences(want, got)
            verdict = "ok" if not found else f"{len(found)} difference(s)"
            print(f"{experiment_id}: {seconds:.1f} s, {verdict}")
            for message in found:
                print(f"  {message}")
            if found:
                failed.append(experiment_id)
    print(f"total: {total:.1f} s for {len(ids)} output(s)")
    if failed:
        print(f"check-figures: differs from results/: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
