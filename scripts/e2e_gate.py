#!/usr/bin/env python3
"""Paired wall-time gate: benchmark a parent tree and this tree in turn.

    python3 scripts/e2e_gate.py PARENT_ROOT [OUT_DIR]

PARENT_ROOT is a checkout of the base commit.  Five pairs of 6-second
``benchmarks/e2e/run.py`` runs of genomes-full and chain-10k, the side
that runs first alternating from pair to pair, write
``OUT_DIR/<side>-<workload>-<i>.json`` (OUT_DIR defaults to
``e2e-gate/``).  Both sides share the machine, so no calibration is
needed.  The gate prints ``run.py compare``'s table and exits 1 when:

* a run fails its reference checks;
* ``compare`` exits 1: a median worse than its ``BENCHMARK.json`` bound
  with the spread inside that bound, or more failed units;
* the change lost every pair of a metric and the median of the
  per-pair relative differences is worse than the bound.  ``compare``
  calls such a metric ``unresolved`` when a side's spread is wider than
  the bound; on a shared 2-vCPU machine genomes-full's run medians
  spread by up to 37%, mostly drift between pairs that pairing cancels,
  and ``compare`` alone missed a 1.5x slowdown in two gate runs of three.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
WORKLOADS = ("genomes-full", "chain-10k")
PAIRS = 5


def clear_regressions(parents: list[str], changes: list[str]) -> list[str]:
    """Metrics the change lost in every pair, with the median pair worse
    than the metric's bound."""
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    from compare import compare

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    found = []
    for row in compare(parents, changes):
        metric = bounds.get(row["metric"])
        if metric is None or row["wins"] != 0:
            continue
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = statistics.median(
            sign * (c - p) / abs(p) for p, c in zip(row["parent"], row["change"])
        )
        if worse > metric["bound"]:
            found.append(
                f"{row['workload']} {row['metric']}: median pair {worse:+.0%}, "
                "lost every pair"
            )
    return found


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    out = Path(argv[1] if len(argv) > 1 else "e2e-gate")
    out.mkdir(parents=True, exist_ok=True)
    for stale in [*out.glob("parent-*.json"), *out.glob("change-*.json")]:
        stale.unlink()
    for i in range(1, PAIRS + 1):
        sides = [("parent", parent), ("change", ROOT)]
        if i % 2 == 0:
            sides.reverse()
        for workload in WORKLOADS:
            for side, root in sides:
                run = subprocess.run([
                    sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
                    "--workload", workload, "--seconds", "6",
                    "-o", str(out / f"{side}-{workload}-{i}.json"),
                ])
                if run.returncode:
                    print(f"e2e-gate: {side} {workload} run {i} failed", file=sys.stderr)
                    return 1
    parents = sorted(str(p) for p in out.glob("parent-*.json"))
    changes = sorted(str(p) for p in out.glob("change-*.json"))
    status = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "compare", *parents, "--", *changes]
    ).returncode
    found = clear_regressions(parents, changes)
    for line in found:
        print(f"e2e-gate: regressed: {line}")
    return 1 if status or found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
