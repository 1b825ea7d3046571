"""``repro-bench`` / ``python -m repro.bench`` — run the benchmark suite."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.bench.macro import macro_benchmarks
from repro.bench.micro import micro_benchmarks
from repro.bench.report import (
    calibrate,
    check_against,
    format_regression,
    load_report,
    write_report,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the fair-share solver (micro: whole-graph "
        "vs dirty-component solves) and full simulations (macro: wall "
        "time and per-task schedules).",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes for CI: micro 10/100 flows, one small macro "
        "scenario",
    )
    parser.add_argument(
        "-o",
        "--output",
        help="report path (default benchmarks/BENCH_<date>.json)",
    )
    parser.add_argument(
        "--check-against",
        metavar="BASELINE",
        help="compare calibrated macro wall times and per-task schedules "
        "against this committed BENCH report; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative macro wall-time regression (default 0.25)",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"

    print(f"repro-bench ({mode} mode)")
    calibration_s = calibrate()
    print(f"calibration: {calibration_s * 1e3:.1f} ms / machine unit")

    entries: list[dict] = []
    print("-- micro: solver throughput --")
    for result in micro_benchmarks(smoke=args.smoke):
        entries.append(result.as_dict())
        print(
            f"  {result.name:12s} {result.events:5d} events  "
            f"oracle {result.oracle_wall_s * 1e3:8.1f} ms  "
            f"incremental {result.incremental_wall_s * 1e3:8.1f} ms "
            f"({result.speedup:5.1f}x)"
        )

    print("-- macro: end-to-end simulations --")
    for result in macro_benchmarks(smoke=args.smoke):
        entries.append(result.as_dict())
        print(
            f"  {result.name:12s} [{result.allocator:11s}] "
            f"{result.wall_s:7.2f} s  {result.events:8d} events  "
            f"{result.solver_calls:7d} solves  "
            f"makespan {result.makespan:.3f} s"
        )

    path = write_report(entries, calibration_s, mode, path=args.output)
    print(f"report written to {path}")

    if args.check_against:
        current = load_report(path)
        baseline = load_report(args.check_against)
        failures = check_against(current, baseline, tolerance=args.tolerance)
        if failures:
            print("PERFORMANCE REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {format_regression(failure)}", file=sys.stderr)
            # One machine-readable line for harnesses (CI annotations,
            # dashboards) — everything above is for humans.
            print(
                json.dumps(
                    {
                        "bench_regressions": failures,
                        "baseline": str(args.check_against),
                        "tolerance": args.tolerance,
                    },
                    sort_keys=True,
                )
            )
            return 1
        print(f"no macro regression vs {args.check_against}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
