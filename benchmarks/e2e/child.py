"""One workload in a fresh interpreter: the child process of ``run.py``.

    python3 child.py setup --workload NAME --seed N [--smoke]
    python3 child.py run --workload NAME --seed N --seconds S --workdir DIR
                         [--smoke] [--trace]

``setup`` times ``import repro`` plus building the workload's inputs.
``run`` runs one untimed warm-up unit at reduced size, then a closed
loop of timed units (the next starts when the previous returns) for at
least ``S`` seconds and two units, checking every unit's outputs.  With
``--trace`` it then runs one more unit under cProfile and rolls it up by
layer.  Either mode prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

from workloads import WORKLOADS, Workload, check_reference

#: The closed loop always times at least this many units, so the
#: repetition-digest check compares something.
MIN_UNITS = 2

#: Largest allowed gap between the layers' summed self time and the
#: traced wall time, as a share of the latter.
TRACE_SUM_TOL = 0.02

#: Check failures kept in the result (the count is always complete).
MAX_ERRORS = 10


def time_setup(workload: Workload, seed: int) -> float:
    start = time.perf_counter()
    import repro  # noqa: F401

    workload.setup(seed)
    return time.perf_counter() - start


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    reference: Optional[dict[str, Any]] = None,
    trace: bool = False,
) -> dict[str, Any]:
    """Warm up, run the timed closed loop, check each unit; maybe trace one."""
    inputs = workload.setup(seed)
    scratch = workdir / "unit"

    def fresh() -> Path:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        return scratch

    workload.warmup(inputs, fresh())
    walls: list[float] = []
    tasks: list[int] = []
    errors: list[str] = []
    failed = 0
    digests: list[str] = []

    def check(raw: Any) -> None:
        nonlocal failed
        outcome, problems = workload.inspect(raw, inputs)
        if reference is not None:
            problems += check_reference(outcome, reference)
        digests.append(outcome.digest())
        if digests[-1] != digests[0]:
            problems.append(f"unit {len(digests)} differs from unit 1 (digest)")
        tasks.append(outcome.tasks)
        if problems:
            failed += 1
            errors.extend(problems[: MAX_ERRORS - len(errors)])

    start = time.perf_counter()
    while len(walls) < MIN_UNITS or time.perf_counter() - start < seconds:
        unit_dir = fresh()
        # Start every unit from the same heap state: the previous unit's
        # garbage would otherwise be collected on this unit's clock.
        gc.collect()
        t0 = time.perf_counter()
        raw = workload.unit(inputs, unit_dir)
        walls.append(time.perf_counter() - t0)
        check(raw)
        del raw

    result: dict[str, Any] = {
        "walls": walls,
        "tasks": tasks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if trace:
        import repro
        from layers import OTHER, layer_metrics, traced_call

        repro_dir = Path(repro.__file__).resolve().parent
        unit_dir = fresh()
        gc.collect()
        raw, traced_wall, rollup = traced_call(
            lambda: workload.unit(inputs, unit_dir), repro_dir
        )
        check(raw)
        self_s = rollup.layer_self_s()
        gap = abs(sum(self_s.values()) - traced_wall) / traced_wall
        if gap > TRACE_SUM_TOL:
            errors.append(
                f"layer self times sum to {sum(self_s.values()):.4f} s, traced "
                f"wall is {traced_wall:.4f} s ({gap:.1%} apart)"
            )
        plain_wall = statistics.median(walls)
        result["layers"] = layer_metrics(rollup, plain_wall, traced_wall)
        result["trace_doc"] = {
            "workload": workload.name,
            "seed": seed,
            "traced_wall_s": traced_wall,
            "plain_wall_s": plain_wall,
            "layers_self_s": self_s,
            "other_s": self_s[OTHER],
            "functions": rollup.functions(),
        }
    shutil.rmtree(scratch, ignore_errors=True)
    result.update(attempted=len(digests), failed=failed, errors=errors)
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    if args.mode == "setup":
        doc: dict[str, Any] = {"setup_s": time_setup(workload, args.seed)}
    else:
        doc = measure(
            workload, args.seed, args.seconds, args.workdir,
            reference=workload.reference(args.seed), trace=args.trace,
        )
        trace_doc = doc.pop("trace_doc", None)
        if trace_doc is not None:
            path = args.workdir / f"trace-{workload.name}.json"
            path.write_text(json.dumps(trace_doc, indent=1) + "\n")
            doc["trace_file"] = str(path)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
