"""Compare benchmark runs of a parent commit with runs of a change.

    python3 benchmarks/e2e/run.py compare PARENT.json... -- CHANGE.json...

Each file is one ``run -o`` output; each result in it is one run.  Runs
of the two sides are paired in the order given.  For every workload ×
end-to-end metric the table shows each side's median and quartiles, the
share of pairs the change wins, and a verdict:

* ``improved``: at least ten pairs, the change wins at least 90% of them
  (ties count for neither), and the medians differ by more than the
  parent's quartile spread;
* ``unresolved``: a side's quartile spread, relative to its median, is
  wider than the metric's bound, and not every change run beats every
  parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``no-worse``: otherwise.

Bounds and directions come from ``BENCHMARK.json``.  ``failed_ratio``
regresses on any increase.  A per-layer count is reported as changed only
when it repeats exactly within each side; per-layer times get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Optional

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load(paths: list[str]) -> dict[str, list[dict[str, Any]]]:
    """Workload → list of results, in file order."""
    runs: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            runs[result["workload"]].append(result)
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict for one metric, and the share of pairs the change wins."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (p - c) > 0: change better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0) / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE and sign * (p_med - c_med) > p_q3 - p_q1:
        return "improved", wins
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", wins
    worse = sign * (c_med - p_med) / abs(p_med)
    return ("regressed" if worse > bound else "no-worse"), wins


def compare(parent_paths: list[str], change_paths: list[str]) -> list[dict[str, Any]]:
    """One row per workload × metric present on both sides."""
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    parent, change = load(parent_paths), load(change_paths)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        rows.append({
            "workload": workload, "metric": "failed_ratio", "unit": "ratio",
            "parent": [p_fail], "change": [c_fail], "wins": None,
            "verdict": "regressed" if c_fail > p_fail else "no-worse",
        })
        names = sorted(
            {k for r in p_runs for k in r["metrics"]} & {k for r in c_runs for k in r["metrics"]},
            key=lambda k: (k not in e2e, k),
        )
        for name in names:
            p_vals = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in p_runs if name in r["metrics"])
            row = {"workload": workload, "metric": name, "unit": unit,
                   "parent": p_vals, "change": c_vals, "wins": None}
            if name in e2e:
                row["verdict"], row["wins"] = verdict(
                    p_vals, c_vals, e2e[name]["better"], e2e[name]["bound"]
                )
            elif name in layer and unit == "count":
                if len(set(p_vals)) > 1 or len(set(c_vals)) > 1:
                    row["verdict"] = "unrepeatable"
                else:
                    row["verdict"] = "same" if p_vals[0] == c_vals[0] else "changed"
            else:
                row["verdict"] = "-"
            rows.append(row)
    return rows


def _fmt(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent_paths, change_paths = argv[:cut], argv[cut + 1:]
    if not parent_paths or not change_paths:
        print("compare: need at least one file on each side of --", file=sys.stderr)
        return 2
    rows = compare(parent_paths, change_paths)
    print(f"{'workload':<13} {'metric':<22} {'unit':<6} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>5}  verdict")
    for row in rows:
        wins = "" if row["wins"] is None else f"{row['wins']:.0%}"
        print(f"{row['workload']:<13} {row['metric']:<22} {row['unit']:<6} "
              f"{_fmt(row['parent']):<36} {_fmt(row['change']):<36} {wins:>5}  {row['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
