"""repro.bench: the performance benchmark harness (``repro-bench``).

Measures two things:

* **micro** — raw solver throughput on synthetic, component-rich flow
  graphs (10 / 100 / 1000 concurrent flows), replaying one admit/drain
  event sequence through a whole-graph
  :func:`~repro.network.fairshare.max_min_fair_rates` solve per event
  and through :class:`~repro.network.components.ComponentSolver`,
  asserting they agree and reporting the speedup;
* **macro** — end-to-end simulation wall time on the paper's workloads
  (a Figure 13 point and the full 1000Genomes run) with the default
  allocator, plus each run's per-task schedule.

Results are written as ``BENCH_<date>.json`` (schema ``repro.bench/1``)
with ``{wall_s, events, solver_calls, links_touched}`` per entry plus a
``calibration_s`` machine-speed factor, so a committed baseline can gate
CI: ``repro-bench --smoke --check-against <baseline>`` fails on a >25 %
calibrated macro wall-time regression or on any per-task schedule that
moved by more than 1e-9 of the makespan.  See ``docs/PERF.md``.
"""

from repro.bench.micro import MicroResult, micro_benchmarks, run_micro
from repro.bench.macro import (
    MACRO_ALLOCATORS,
    MacroResult,
    macro_benchmarks,
    run_macro,
)
from repro.bench.report import (
    BENCH_SCHEMA,
    calibrate,
    check_against,
    format_regression,
    write_report,
)

__all__ = [
    "BENCH_SCHEMA",
    "MACRO_ALLOCATORS",
    "MacroResult",
    "MicroResult",
    "calibrate",
    "check_against",
    "format_regression",
    "macro_benchmarks",
    "micro_benchmarks",
    "run_macro",
    "run_micro",
    "write_report",
]
