"""Macro benchmarks: end-to-end simulation wall time on paper workloads.

Two scenarios, each run once with the default allocator:

* ``fig13-point`` — one Figure 13 sweep point (1000Genomes on Cori,
  half the inputs staged into the burst buffer, reduced chromosome
  count) — the unit of work every sweep repeats dozens of times;
* ``genomes-full`` — the full 22-chromosome 1000Genomes case study.

The allocator names ``incremental`` and ``vectorized`` are aliases of
``max-min`` on the one flow-network event loop, so a run per name would
measure the same thing three times.  Each entry reports wall time, the
observer's kernel/solver counters (did we do more events, more solves,
or just slower solves?) and the per-task schedule, which
:func:`~repro.bench.report.check_against` compares with the baseline's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.network import DEFAULT_ALLOCATOR
from repro.obs import Observer
from repro.scenarios import run_genomes


@dataclass
class MacroResult:
    """One macro benchmark run (one scenario × one allocator)."""

    name: str
    allocator: str
    wall_s: float
    makespan: float
    events: int                      # DES kernel events processed
    solver_calls: int
    links_touched: int
    #: Task name -> ``[start, end, host]``.
    schedule: dict[str, list] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": "macro",
            "allocator": self.allocator,
            "wall_s": self.wall_s,
            "makespan": self.makespan,
            "events": self.events,
            "solver_calls": self.solver_calls,
            "links_touched": self.links_touched,
            "schedule": self.schedule,
        }


#: Macro scenario table: name -> run_genomes keyword arguments.
_SCENARIOS_FULL = {
    "fig13-point": dict(
        system="cori", input_fraction=0.5, n_chromosomes=6, n_compute=4
    ),
    "genomes-full": dict(
        system="cori", input_fraction=0.6, n_chromosomes=22, n_compute=8
    ),
}

_SCENARIOS_SMOKE = {
    "fig13-point": dict(
        system="cori", input_fraction=0.5, n_chromosomes=2, n_compute=2
    ),
}


def run_macro(name: str, allocator: str, **kwargs) -> MacroResult:
    """Run one scenario under ``allocator`` with full instrumentation."""
    observer = Observer(metrics=["network", "des"])
    start = time.perf_counter()  # lint: ignore[SIM001] — harness wall time
    result = run_genomes(
        observer=observer, network_allocator=allocator, **kwargs
    )
    wall = time.perf_counter() - start  # lint: ignore[SIM001]
    registry = observer.registry
    return MacroResult(
        name=name,
        allocator=allocator,
        wall_s=wall,
        makespan=result.makespan,
        events=int(registry.counter("des.events_processed").value),
        solver_calls=int(registry.counter("network.solver_calls").value),
        links_touched=int(registry.counter("network.links_touched").value),
        schedule={
            task: [rec.start, rec.end, rec.host]
            for task, rec in sorted(result.trace.records.items())
        },
    )


#: The allocators every macro scenario is benchmarked under.
MACRO_ALLOCATORS = (DEFAULT_ALLOCATOR,)


def macro_benchmarks(smoke: bool = False) -> list[MacroResult]:
    """Run every macro scenario under each of :data:`MACRO_ALLOCATORS`."""
    scenarios = _SCENARIOS_SMOKE if smoke else _SCENARIOS_FULL
    return [
        run_macro(name, allocator, **kwargs)
        for name, kwargs in scenarios.items()
        for allocator in MACRO_ALLOCATORS
    ]
