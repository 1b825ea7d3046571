"""Roll a cProfile run up into per-layer self time and entry-point counts.

The profiler is attached from outside the program: no source edits.
Entries are read from ``cProfile.Profile.getstats()`` and keyed by code
object.  ``pstats`` is not used because it keys by ``(file, line, name)``
and keeps only the last of colliding entries (every dataclass
``__init__`` is ``<string>:2``; nested comprehensions share a line),
which silently drops several percent of the traced time.

A function under ``repro/<subpackage>`` belongs to that subpackage's
layer.  The self time of everything else (builtins, numpy, networkx, the
standard library) is charged to the layers of its callers, split by the
self time each caller edge carries; a caller that is itself outside
``repro`` passes its share on to its own callers.
"""

from __future__ import annotations

import cProfile
import time
from collections import defaultdict
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Union

#: Reported layers, in report order.
LAYERS = (
    "des", "network", "perf", "storage", "compute", "wms", "workflow",
    "platform", "traces", "obs", "profile", "sweep", "api",
)

#: ``repro`` subpackage or top-level module → layer.  ``experiments`` is
#: the figure modules' point functions, run by the sweep; ``model`` holds
#: the Eq. 3/4 task model the compute service evaluates.
_LAYER_OF = {
    **{name: name for name in LAYERS},
    "experiments": "sweep",
    "model": "compute",
    "scenarios": "api",
    "simulator": "api",
    "config": "api",
    "__init__": "api",
}

#: Time charged to no reported layer: harness code and repro modules
#: outside the simulation path.
OTHER = "other"

Key = Union[CodeType, str]


def _entry_points() -> dict[str, CodeType]:
    """Code objects whose call counts and inclusive times are reported."""
    from repro.compute.service import ComputeService
    from repro.config import Config
    from repro.des.environment import Environment
    from repro.network.allocators import resolve_allocator
    from repro.network.flownet import FlowNetwork
    from repro.obs.exporters import export_run
    from repro.profile.build import build_profile
    from repro.storage.base import StorageService
    from repro.sweep.runner import _execute_point

    solver = resolve_allocator(Config().network_allocator)
    return {
        "des.events": Environment.step.__code__,
        "network.transfers": FlowNetwork.transfer.__code__,
        "network.solves": getattr(solver, "__code__", None)
        or type(solver).__call__.__code__,
        "storage.reads": StorageService.read.__code__,
        "storage.writes": StorageService.write.__code__,
        "storage.used_calls": StorageService.used.fget.__code__,
        # The workflow engine acquires cores once per task and times the
        # compute phase itself; ComputeService.execute is a convenience
        # wrapper no simulation path calls.
        "compute.executions": ComputeService.acquire_cores.__code__,
        "obs.export": export_run.__code__,
        "profile.build": build_profile.__code__,
        "sweep.points": _execute_point.__code__,
    }


def _label(key: Key, root: Path) -> str:
    if isinstance(key, str):
        return key
    path = Path(key.co_filename)
    try:
        path = path.relative_to(root)
    except ValueError:
        pass
    return f"{path}:{key.co_firstlineno}({key.co_name})"


class Rollup:
    """Per-function and per-layer view of one profiled call."""

    def __init__(self, profiler: cProfile.Profile, repro_dir: Path) -> None:
        self.repro_dir = repro_dir
        self.self_s: dict[Key, float] = defaultdict(float)
        self.incl_s: dict[Key, float] = defaultdict(float)
        self.calls: dict[Key, int] = defaultdict(int)
        # callee -> caller -> callee self time on that edge
        self.edges: dict[Key, dict[Key, float]] = defaultdict(lambda: defaultdict(float))
        for entry in profiler.getstats():
            self.self_s[entry.code] += entry.inlinetime
            self.incl_s[entry.code] += entry.totaltime
            self.calls[entry.code] += entry.callcount
            for sub in entry.calls or ():
                self.edges[sub.code][entry.code] += sub.inlinetime
        self._shares: dict[Key, dict[str, float]] = {}
        self._file_layer: dict[str, str | None] = {}

    def own_layer(self, key: Key) -> str | None:
        """The layer of a function defined in ``repro``, else ``None``."""
        if isinstance(key, str):
            return None
        filename = key.co_filename
        if filename not in self._file_layer:
            try:
                rel = Path(filename).resolve().relative_to(self.repro_dir)
                layer = _LAYER_OF.get(rel.parts[0].removesuffix(".py"), OTHER)
            except ValueError:
                layer = None
            self._file_layer[filename] = layer
        return self._file_layer[filename]

    def layer_shares(self, key: Key, visiting: frozenset = frozenset()) -> dict[str, float]:
        """How ``key``'s self time splits over layers (fractions summing to 1)."""
        own = self.own_layer(key)
        if own is not None:
            return {own: 1.0}
        if key in self._shares:
            return self._shares[key]
        callers = {
            c: t for c, t in self.edges.get(key, {}).items()
            if c not in visiting and c != key
        }
        total = sum(callers.values())
        if total <= 0:
            # No caller edge with time: charge by call edges equally, or
            # to OTHER at the root of the profile.
            callers = {c: 1.0 for c in callers}
            total = float(len(callers))
        shares: dict[str, float] = defaultdict(float)
        if not callers:
            shares[OTHER] = 1.0
        for caller, weight in callers.items():
            for layer, frac in self.layer_shares(caller, visiting | {key}).items():
                shares[layer] += frac * weight / total
        if not visiting:
            self._shares[key] = dict(shares)
        return shares

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in (*LAYERS, OTHER)}
        for key, seconds in self.self_s.items():
            for layer, frac in self.layer_shares(key).items():
                out[layer] += seconds * frac
        return out

    def functions(self) -> list[dict[str, Any]]:
        """Per-function rows for ``trace-<workload>.json``."""
        rows: dict[str, dict[str, Any]] = {}
        root = self.repro_dir.parent
        for key in self.self_s:
            label = _label(key, root)
            shares = self.layer_shares(key)
            row = rows.setdefault(
                label,
                {"function": label, "self_s": 0.0, "incl_s": 0.0, "calls": 0,
                 "layer": max(shares, key=shares.get)},
            )
            row["self_s"] += self.self_s[key]
            row["incl_s"] += self.incl_s[key]
            row["calls"] += self.calls[key]
        return sorted(rows.values(), key=lambda r: -r["self_s"])


def traced_call(fn: Callable[[], Any], repro_dir: Path) -> tuple[Any, float, Rollup]:
    """Run ``fn`` under cProfile; return its result, wall seconds, rollup."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return result, wall, Rollup(profiler, repro_dir)


def layer_metrics(rollup: Rollup, plain_wall_s: float, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced unit, by name."""
    self_s = rollup.layer_self_s()
    total = sum(self_s.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total if total else 0.0
    codes = _entry_points()

    def count(name: str) -> int:
        return rollup.calls.get(codes[name], 0)

    def incl(name: str) -> float:
        return rollup.incl_s.get(codes[name], 0.0)

    for name in (
        "des.events", "network.transfers", "network.solves", "storage.reads",
        "storage.writes", "storage.used_calls", "compute.executions", "sweep.points",
    ):
        metrics[name] = count(name)
    metrics["network.solve_s"] = incl("network.solves")
    metrics["obs.export_s"] = incl("obs.export")
    metrics["profile.build_s"] = incl("profile.build")
    metrics["des.events_per_s"] = metrics["des.events"] / plain_wall_s
    metrics["trace.overhead_ratio"] = traced_wall_s / plain_wall_s
    return metrics
