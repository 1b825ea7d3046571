"""The benchmark's four workloads: their inputs, one unit of work, its checks.

Each workload stresses a different part of the simulator (see README.md):

* ``genomes-full`` — the paper's Section IV-C case study as users run it;
  every layer works, the network layer most.
* ``fig13-sweep`` — the Fig. 13 staged-fraction sweep with per-point
  telemetry export; the only workload where ``sweep``, ``obs`` and
  ``profile`` do work.
* ``fanout-500`` — 500 files written and read at once: the rate solve and
  the per-event flow sweeps dominate.
* ``chain-10k`` — one flow in flight at a time: the rate solve is trivial,
  so network optimisations should not move it.

The paper workloads are fixed inputs and ignore the seed.  The synthetic
ones draw task durations from U[5, 15] s and file sizes from
U[50, 150] MB with ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Relative tolerance of every comparison against a reference output.
REL_TOL = 1e-9

#: Fig. 13 systems, in the column order of ``fig13.run``'s rows.
FIG13_SYSTEMS = ("cori", "summit")


@dataclass(frozen=True)
class Outcome:
    """What one unit of work produced, reduced to what the checks compare.

    ``makespans`` holds one value per simulation of the unit;
    ``schedule`` maps each task to ``(start, end, host)`` for units that
    run one workflow (``None`` for the sweep).
    """

    makespans: tuple[float, ...]
    tasks: int
    schedule: Optional[dict[str, tuple[float, float, str]]] = None

    def digest(self) -> str:
        """sha256 over every output value, bit-exact."""
        doc = {"makespans": list(self.makespans), "schedule": self.schedule}
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def to_reference(self, workload: "Workload", seed: int) -> dict[str, Any]:
        return {
            "workload": workload.name,
            "size": workload.size,
            "seed": seed if workload.seeded else None,
            "makespans": list(self.makespans),
            "schedule": self.schedule,
        }


def _trace_outcome(trace) -> Outcome:
    schedule = {
        name: (rec.start, rec.end, rec.host)
        for name, rec in sorted(trace.records.items())
    }
    return Outcome((trace.makespan,), len(schedule), schedule)


def check_schedule(workflow, trace) -> list[str]:
    """Every task ran exactly once, and only after all of its parents."""
    names = [t.name for t in workflow]
    if sorted(trace.records) != sorted(names):
        return [
            f"{len(trace.records)} task records for {len(names)} tasks "
            "(a task is missing or ran twice)"
        ]
    errors = []
    for task in workflow:
        start = trace.records[task.name].start
        for parent in workflow.parents(task.name):
            if start < trace.records[parent.name].end:
                errors.append(f"{task.name} started before parent {parent.name} ended")
    return errors


def _close(a: float, b: float, scale: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL * scale)


def check_reference(outcome: Outcome, reference: dict[str, Any]) -> list[str]:
    """Compare ``outcome`` with a stored reference at ``REL_TOL`` relative."""
    want = reference["makespans"]
    if len(want) != len(outcome.makespans):
        return [f"{len(outcome.makespans)} makespans, reference has {len(want)}"]
    scale = max(abs(m) for m in want)
    errors = [
        f"makespan[{i}] {got!r} != reference {ref!r}"
        for i, (got, ref) in enumerate(zip(outcome.makespans, want))
        if not _close(got, ref, scale)
    ]
    ref_schedule = reference.get("schedule")
    if ref_schedule is None:
        return errors
    if outcome.schedule is None or sorted(outcome.schedule) != sorted(ref_schedule):
        return errors + ["task set differs from the reference"]
    for name, (start, end, host) in outcome.schedule.items():
        r_start, r_end, r_host = ref_schedule[name]
        if host != r_host or not (
            _close(start, r_start, scale) and _close(end, r_end, scale)
        ):
            errors.append(
                f"{name}: ({start!r}, {end!r}, {host}) != reference "
                f"({r_start!r}, {r_end!r}, {r_host})"
            )
    return errors


class Workload:
    """One benchmark workload.

    ``setup`` builds the inputs (the part ``setup_s`` times, together with
    importing ``repro``); ``unit`` runs one timed unit of work on them in
    an empty ``workdir``; ``inspect`` reduces what it returned to an
    :class:`Outcome` plus the check failures found, outside the timed
    region; ``warmup`` runs one reduced, untimed unit.  ``size`` is the
    input size, ``sizes[smoke]``; a reference only applies at the size it
    was taken at.
    """

    name: str
    seeded: bool = True
    sizes: tuple[int, int]  # (full, smoke)

    def __init__(self, smoke: bool = False) -> None:
        self.size = self.sizes[smoke]

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def unit(self, inputs: Any, workdir: Path) -> Any:
        raise NotImplementedError

    def inspect(self, raw: Any, inputs: Any) -> tuple[Outcome, list[str]]:
        raise NotImplementedError

    def warmup(self, inputs: Any, workdir: Path) -> None:
        raise NotImplementedError

    def reference(self, seed: int) -> Optional[dict[str, Any]]:
        """The committed reference for this size and seed, if there is one."""
        path = REFERENCE_DIR / f"{self.name}.json.gz"
        if not path.exists():
            return None
        with gzip.open(path, "rt") as fh:
            ref = json.load(fh)
        if ref["size"] != self.size or (self.seeded and ref["seed"] != seed):
            return None
        return ref


class GenomesFull(Workload):
    """``run_genomes`` on Cori, 60% staged, 8 nodes, default Config."""

    name = "genomes-full"
    seeded = False
    sizes = (22, 2)  # chromosomes

    def setup(self, seed: int) -> Any:
        from repro.platform.presets import cori_spec
        from repro.workflow.genomes import make_1000genomes
        import repro.scenarios  # noqa: F401 - the unit's entry point

        cori_spec(n_compute=8)
        return make_1000genomes(n_chromosomes=self.size)

    def _run(self, n_chromosomes: int):
        from repro.scenarios import run_genomes

        return run_genomes(
            system="cori", input_fraction=0.6,
            n_chromosomes=n_chromosomes, n_compute=8,
        )

    def unit(self, inputs: Any, workdir: Path) -> Any:
        return self._run(self.size).trace

    def inspect(self, raw: Any, inputs: Any) -> tuple[Outcome, list[str]]:
        return _trace_outcome(raw), check_schedule(inputs, raw)

    def warmup(self, inputs: Any, workdir: Path) -> None:
        self._run(2)


class Fig13Sweep(Workload):
    """The quick Fig. 13 sweep, serial, uncached, exporting telemetry.

    Twelve points (cori/summit × six staged fractions) of the
    6-chromosome 1000Genomes workflow; each point writes its manifest,
    Perfetto trace, metric CSVs and critical-path profile.
    """

    name = "fig13-sweep"
    seeded = False
    sizes = (6, 6)  # chromosomes per point: fig13's quick sweep either way

    def setup(self, seed: int) -> Any:
        from repro.experiments import fig13
        from repro.platform.presets import cori_spec, summit_spec
        from repro.workflow.genomes import make_1000genomes

        points = len(fig13.sweep_spec(quick=True))
        cori_spec(n_compute=8)
        summit_spec(n_compute=8)
        return points * len(make_1000genomes(n_chromosomes=self.size))

    def unit(self, inputs: Any, workdir: Path) -> Any:
        from repro.experiments import fig13
        from repro.sweep import SweepOptions

        return fig13.run(quick=True, sweep=SweepOptions(obs_dir=workdir))

    def inspect(self, raw: Any, inputs: Any) -> tuple[Outcome, list[str]]:
        columns = [raw.column(f"{s}_s") for s in FIG13_SYSTEMS]
        makespans = tuple(m for row in zip(*columns) for m in row)
        return Outcome(makespans, inputs), fig13_findings(*columns)

    def warmup(self, inputs: Any, workdir: Path) -> None:
        from repro.experiments import fig13

        fig13.compute_point(
            {"system": "summit", "fraction": 0.5, "n_chromosomes": 2},
            obs_dir=workdir,
        )


def fig13_findings(cori: list[float], summit: list[float]) -> list[str]:
    """The paper's Fig. 13 findings, as ``benchmarks/test_bench_fig13.py``
    asserts them."""
    errors = []
    if cori != sorted(cori, reverse=True) or summit != sorted(summit, reverse=True):
        errors.append("makespan does not fall as more input is staged")
    if not all(s < c for s, c in zip(summit, cori)):
        errors.append("summit is not faster than cori at every fraction")
    cori_tail = (cori[-2] - cori[-1]) / cori[-2]
    summit_tail = (summit[-2] - summit[-1]) / summit[-2]
    if not cori_tail < summit_tail:
        errors.append("cori's last step is not flatter than summit's (no plateau)")
    return errors


class _Synthetic(Workload):
    """A seeded synthetic workflow on ``cori_spec(n_compute=8, n_bb_nodes=1)``,
    run through ``repro.simulate`` with the default Config."""

    warmup_size: int

    def setup(self, seed: int) -> Any:
        import numpy as np

        from repro.platform.presets import cori_spec

        spec = cori_spec(n_compute=8, n_bb_nodes=1)
        workflow = self.build(self.size, np.random.default_rng(seed))
        warm = self.build(self.warmup_size, np.random.default_rng(seed))
        return spec, workflow, warm

    def unit(self, inputs: Any, workdir: Path) -> Any:
        import repro

        spec, workflow, _ = inputs
        return repro.simulate(spec, workflow).trace

    def inspect(self, raw: Any, inputs: Any) -> tuple[Outcome, list[str]]:
        return _trace_outcome(raw), check_schedule(inputs[1], raw)

    def warmup(self, inputs: Any, workdir: Path) -> None:
        import repro

        spec, _, warm = inputs
        repro.simulate(spec, warm)

    @staticmethod
    def build(size: int, rng):
        raise NotImplementedError


def _flops_and_sizes(rng, n_tasks: int, n_files: int):
    """Task compute work in flop and file sizes in bytes, as floats."""
    from repro.platform.presets import TABLE_I

    speed = TABLE_I["cori"]["core_speed"]
    flops = [float(s) * speed for s in rng.uniform(5.0, 15.0, size=n_tasks)]
    sizes = [float(b) for b in rng.uniform(50e6, 150e6, size=n_files)]
    return flops, sizes


class Fanout(_Synthetic):
    """``make_fork_join``'s shape: source → {500 workers} → sink."""

    name = "fanout-500"
    sizes = (500, 50)  # workers
    warmup_size = 50

    @staticmethod
    def build(size: int, rng):
        from repro.workflow.model import File, Task, Workflow

        flops, sizes = _flops_and_sizes(rng, size + 2, 2 * size + 2)
        parts = [File(f"fj/part_{i}", sizes[1 + i]) for i in range(size)]
        results = [File(f"fj/result_{i}", sizes[1 + size + i]) for i in range(size)]
        tasks = [
            Task("source", flops=flops[0], inputs=(File("fj/input", sizes[0]),),
                 outputs=tuple(parts), group="source")
        ]
        tasks += [
            Task(f"worker_{i}", flops=flops[1 + i], inputs=(parts[i],),
                 outputs=(results[i],), group="worker")
            for i in range(size)
        ]
        tasks.append(
            Task("sink", flops=flops[-1], inputs=tuple(results),
                 outputs=(File("fj/output", sizes[-1]),), group="sink")
        )
        return Workflow(f"fork-join[{size}]", tasks)


class Chain(_Synthetic):
    """``make_chain``'s shape: 10,000 stages, one handoff file each."""

    name = "chain-10k"
    sizes = (10_000, 200)  # stages
    warmup_size = 200

    @staticmethod
    def build(size: int, rng):
        from repro.workflow.model import File, Task, Workflow

        flops, sizes = _flops_and_sizes(rng, size, size + 1)
        tasks = []
        previous = File("chain/input", sizes[0])
        for i in range(size):
            output = File(f"chain/stage_{i}", sizes[1 + i])
            tasks.append(
                Task(f"stage_{i}", flops=flops[i], inputs=(previous,),
                     outputs=(output,), group="stage")
            )
            previous = output
        return Workflow(f"chain[{size}]", tasks)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (GenomesFull, Fig13Sweep, Fanout, Chain)
}
