"""Micro benchmarks: solver throughput on synthetic flow graphs.

The workload mimics what a burst-buffer simulation actually generates: a
platform of many node-local link clusters (disk read/write channels,
PCIe uplinks) where most flows stay within one cluster and a minority
cross a shared backbone.  That makes the flow/link graph component-rich
— exactly the structure dirty-component solving exploits — while the
occasional backbone flow keeps components merging and splitting.

One deterministic admit/drain sequence (a sliding window of active
flows) is replayed twice:

* **oracle** — on every event, rebuild the active flow list and call
  :func:`~repro.network.fairshare.max_min_fair_rates` on the whole
  graph (the cost model of a network that re-solves everything);
* **incremental** — feed the same events to
  :class:`~repro.network.components.ComponentSolver`, which re-solves
  only dirty components over identical-constraint classes, as
  :class:`~repro.network.FlowNetwork` does.

Both replays must agree on every flow's rate at the end, so the speedup
is measured on proven-equivalent work.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

# lint: ignore-file[SIM060] - the micro bench *measures* the whole-graph
# solve against the component solver; calling it directly is the benchmark.
from repro.network.components import ComponentSolver, static_capacity
from repro.network.fairshare import max_min_fair_rates

#: Relative tolerance for oracle/incremental rate agreement.  Rates are
#: bit-identical per component; filling several components at once
#: splits the increments differently, so cross-checks allow ulp slack.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class MicroWorkload:
    """A deterministic admit/drain event sequence over a link topology."""

    name: str
    window: int                      # target number of concurrent flows
    capacities: dict[str, float]     # link name -> capacity
    #: ("admit", fid, links, cap) and ("drain", fid) events, in order.
    events: tuple[tuple, ...]


@dataclass
class MicroResult:
    """One micro benchmark's measurements."""

    name: str
    flows: int                       # concurrent-flow window
    events: int                      # admit/drain events replayed
    oracle_wall_s: float
    incremental_wall_s: float
    solver_calls: int                # incremental component solves
    links_touched: int               # total links across those solves
    full_solves: int                 # solves that spanned the whole graph

    @property
    def speedup(self) -> float:
        if self.incremental_wall_s <= 0:  # pragma: no cover - clock quirk
            return float("inf")
        return self.oracle_wall_s / self.incremental_wall_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": "micro",
            "flows": self.flows,
            "events": self.events,
            "wall_s": self.incremental_wall_s,
            "oracle_wall_s": self.oracle_wall_s,
            "speedup": self.speedup,
            "solver_calls": self.solver_calls,
            "links_touched": self.links_touched,
            "full_solves": self.full_solves,
        }


def make_workload(
    window: int,
    n_events: "int | None" = None,
    seed: int = 7,
    cross_fraction: float = 0.05,
    name: "str | None" = None,
) -> MicroWorkload:
    """Build the synthetic cluster topology and its event sequence.

    ``window`` flows stay concurrently active (one admit drains the
    oldest once the window is full); clusters number ``window // 8`` (at
    least 2) with an up/down link pair each, plus one shared backbone
    link that ``cross_fraction`` of flows traverse.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    rng = random.Random(seed)
    n_events = 4 * window if n_events is None else n_events
    n_clusters = max(2, window // 8)

    capacities: dict[str, float] = {"core": 1000.0}
    for c in range(n_clusters):
        capacities[f"c{c}:up"] = 100.0 + c
        capacities[f"c{c}:down"] = 80.0 + c

    events: list[tuple] = []
    live: list[int] = []
    for fid in range(n_events):
        cluster = rng.randrange(n_clusters)
        links = [f"c{cluster}:up", f"c{cluster}:down"]
        if rng.random() < cross_fraction:
            links.append("core")
        cap = rng.choice([float("inf"), 50.0, 25.0])
        events.append(("admit", fid, tuple(links), cap))
        live.append(fid)
        if len(live) > window:
            # Drain a random victim: keeps component churn realistic
            # (FIFO would always empty whole clusters in admit order).
            victim = live.pop(rng.randrange(len(live)))
            events.append(("drain", victim))
    return MicroWorkload(
        name=name or f"micro-{window}",
        window=window,
        capacities=capacities,
        events=tuple(events),
    )


def _replay_oracle(workload: MicroWorkload) -> dict[int, float]:
    """Whole-graph solve on every event (no component reuse)."""
    flow_links: dict[int, tuple] = {}
    flow_caps: dict[int, float] = {}
    rates: dict[int, float] = {}
    for event in workload.events:
        if event[0] == "admit":
            _, fid, links, cap = event
            flow_links[fid] = links
            flow_caps[fid] = cap
        else:
            del flow_links[event[1]]
            del flow_caps[event[1]]
        if not flow_links:
            rates = {}
            continue
        fids = list(flow_links)
        used = {link for fid in fids for link in flow_links[fid]}
        capacities = {link: workload.capacities[link] for link in used}
        solved = max_min_fair_rates(
            [flow_links[fid] for fid in fids],
            capacities,
            [flow_caps[fid] for fid in fids],
        )
        rates = dict(zip(fids, solved))
    return rates


def _replay_incremental(
    workload: MicroWorkload, engine: ComponentSolver
) -> dict[int, float]:
    """The same events through the component solver."""
    for event in workload.events:
        if event[0] == "admit":
            _, fid, links, cap = event
            engine.admit(fid, links, cap)
        else:
            engine.drain(event[1])
        engine.solve()
    return engine.rates


def _check_agreement(
    oracle: dict[int, float], incremental: dict[int, float], name: str
) -> None:
    if oracle.keys() != incremental.keys():  # pragma: no cover - defensive
        raise AssertionError(f"{name}: solvers disagree on active flows")
    for fid, expected in oracle.items():
        got = incremental[fid]
        if abs(got - expected) > _REL_TOL * max(abs(expected), 1.0):
            raise AssertionError(
                f"{name}: flow {fid} rate {got!r} != oracle {expected!r}"
            )


def run_micro(workload: MicroWorkload, repeats: int = 3) -> MicroResult:
    """Benchmark one workload; best-of-``repeats`` wall times.

    The first replay of each solver doubles as the correctness check
    (oracle and incremental must agree on every rate), so
    ``repeats=1`` costs exactly one replay per solver — that keeps the
    1000-flow bench affordable, where a single oracle replay is tens of
    seconds.
    """
    holder: dict = {}

    def oracle_once() -> None:
        holder["oracle"] = _replay_oracle(workload)

    def incremental_once() -> None:
        engine = ComponentSolver(static_capacity(workload.capacities))
        holder["rates"] = _replay_incremental(workload, engine)
        holder["stats"] = engine.stats

    oracle_wall = min(_timed(oracle_once) for _ in range(repeats))
    incremental_wall = min(_timed(incremental_once) for _ in range(repeats))
    _check_agreement(holder["oracle"], holder["rates"], workload.name)
    stats = holder["stats"]
    return MicroResult(
        name=workload.name,
        flows=workload.window,
        events=len(workload.events),
        oracle_wall_s=oracle_wall,
        incremental_wall_s=incremental_wall,
        solver_calls=stats.solver_calls,
        links_touched=stats.links_touched,
        full_solves=stats.full_solves,
    )


def _timed(fn) -> float:
    start = time.perf_counter()  # lint: ignore[SIM001] — harness wall time
    fn()
    return time.perf_counter() - start  # lint: ignore[SIM001]


def micro_benchmarks(smoke: bool = False) -> list[MicroResult]:
    """The standard micro suite: 10 / 100 / 1000 concurrent flows.

    The 1000-flow bench caps its admit count (window + 500 steady-state
    admits) and runs one replay per solver: each oracle event there is a
    ~30 ms global solve, so a full-length replay would take minutes and
    measure nothing the shorter one doesn't.
    """
    if smoke:
        plan = [(10, None, 1), (100, None, 1)]
    else:
        plan = [(10, None, 3), (100, None, 3), (1000, 1500, 1)]
    return [
        run_micro(make_workload(window, n_events=n_admits), repeats=repeats)
        for window, n_admits, repeats in plan
    ]
