"""End-to-end benchmark of the simulator: run a workload, or compare runs.

    python3 benchmarks/e2e/run.py [run] --workload NAME --seed N
        [--seconds S] [--trace 0|1] [--smoke] [-o OUT.json]
    python3 benchmarks/e2e/run.py compare PARENT.json... -- CHANGE.json...
    python3 benchmarks/e2e/run.py reference

``run`` prints every metric by name and unit, then, as its last stdout
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--workload`` it runs every workload in turn, one result line
each.  It exits 1 when a check fails.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
separate cProfile run of one unit and writes ``trace-<workload>.json``
into ``.bench_e2e/``.

All load comes from this one process, which starts one child interpreter
at a time (``child.py``): five for ``setup_s``, then one that runs the
workload.  It uses no threads.  ``reference`` rewrites the committed
reference outputs from the current code (seed 0, full size).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKDIR = ROOT / ".bench_e2e"
sys.path.insert(0, str(HERE))

from compare import quartiles  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: Wall-clock budget of one ``run`` of one workload, children included.
BUDGET_S = 170.0

#: End-to-end metrics and their units.
E2E_UNITS = {"wall_s": "s", "tasks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_ratio")):
        return "ratio"
    return "count"


def _child(mode: str, args: list[str], deadline: float) -> dict[str, Any]:
    """Run ``child.py`` to completion; return its last-line JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    tmp = WORKDIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    cmd = [sys.executable, str(HERE / "child.py"), mode, *args]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"e2e: child {mode} {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict[str, Any]:
    """One benchmark run of one workload; returns the result document."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"e2e: no repro package under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups = [] if trace else [
        _child("setup", common, deadline)["setup_s"] for _ in range(SETUP_REPEATS)
    ]
    out = _child(
        "run",
        common + ["--seconds", str(seconds), "--workdir", str(WORKDIR)]
        + (["--trace"] if trace else []),
        deadline,
    )
    walls = out["walls"]
    if trace:
        metrics = out["layers"]
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "tasks_per_s": statistics.median(
                n / wall for n, wall in zip(out["tasks"], walls)
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        units = E2E_UNITS
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "correct": out["failed"] == 0 and not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "samples": {"wall_s": walls, "setup_s": setups},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **({"trace_file": out["trace_file"]} if trace else {}),
    }


def print_result(result: dict[str, Any]) -> None:
    """Human-readable block, then the one-line JSON result."""
    name = result["workload"]
    for err in result["errors"]:
        print(f"{name}  CHECK FAILED  {err}")
    walls = result["samples"]["wall_s"]
    q1, q3 = quartiles(walls)
    print(
        f"{name}  plain wall per unit: n={len(walls)} median="
        f"{statistics.median(walls):.4f} s q1={q1:.4f} q3={q3:.4f}"
    )
    for key, m in result["metrics"].items():
        print(f"{name}  {key:<22} {m['value']:>14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name}  failed_ratio {result['failed']}/{result['attempted']} = {ratio:g}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)


def cmd_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_result(result)
        results.append(result)
    if args.output:
        doc = {"schema": "repro.e2e/1", "results": results}
        Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


def cmd_reference() -> int:
    """Rewrite ``reference/`` from one seed-0 unit of each workload."""
    import gzip
    import shutil

    sys.path.insert(0, str(ROOT / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = WORKDIR / "reference"
    for cls in WORKLOADS.values():
        workload = cls()
        inputs = workload.setup(0)
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        outcome, errors = workload.inspect(workload.unit(inputs, scratch), inputs)
        if errors:
            raise SystemExit(f"e2e: {workload.name} fails its own checks: {errors[:3]}")
        path = REFERENCE_DIR / f"{workload.name}.json.gz"
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(outcome.to_reference(workload, 0), sort_keys=True).encode())
        print(f"wrote {path.relative_to(ROOT)}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["reference"]:
        return cmd_reference()
    if argv[:1] == ["run"]:
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed closed-loop length per run (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (fig13-sweep keeps its size)")
    parser.add_argument("-o", "--output", help="also write the results as JSON")
    return cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
