"""High-level scenario builders — the library's main entry points.

Each function chooses the platform, workflow, placement and engine
settings of one of the paper's experimental configurations and runs it
through the one run path (:func:`repro.simulator._execute`), which
builds the storage and compute services from the host roles:

* :func:`run_swarp` — the SWarp characterization scenarios of
  Section III (Figures 4–9) and their simulated counterparts
  (Figures 10–11);
* :func:`run_genomes` — the 1000Genomes case study of Section IV-C
  (Figures 13–14).

``emulated=False`` (default) runs the paper's simple model: Table I
bandwidths, perfect speedup, no metadata costs.  ``emulated=True`` runs
the high-fidelity emulator standing in for the real Cori/Summit runs
(see :mod:`repro.emulation`, which only an emulated run imports).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro import des
from repro.compute import ComputeService
from repro.config import Config
from repro.network import DEFAULT_ALLOCATOR
from repro.platform import Platform
from repro.platform.presets import compute_node_names, cori_spec, summit_spec
from repro.simulator import SIMPLE_MODEL, _execute
from repro.storage import BBMode
from repro.traces.events import ExecutionTrace
from repro.wms import WorkflowEngine
from repro.workflow.genomes import make_1000genomes
from repro.workflow.model import Workflow
from repro.workflow.swarp import make_swarp

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.emulation import EmulationEffects
    from repro.obs import Observer

SYSTEMS = ("cori", "summit")


@dataclass
class ScenarioResult:
    """Everything a harness needs from one simulated execution.

    ``engine``/``workflow`` are ``None`` for scenarios that drive the
    allocators directly instead of executing a workflow DAG (the
    contended multi-job BB scenario).
    """

    trace: ExecutionTrace
    platform: Platform
    engine: Optional[WorkflowEngine]
    workflow: Optional[Workflow]

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    def mean_duration(self, group: str) -> float:
        return self.trace.group_mean_duration(group)

    @property
    def pipeline_makespan(self) -> float:
        """Makespan of the compute pipelines, excluding stage-in.

        Figures 5, 10, and 11 report task/pipeline times with staging
        done beforehand; this is the matching quantity.
        """
        records = [
            r
            for r in self.trace.records.values()
            if r.group not in ("stage_in",)
        ]
        if not records:
            return 0.0
        start = min(r.start for r in records)
        end = max(r.end for r in records)
        return end - start


def _validate_fraction(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")


# ----------------------------------------------------------------------
# SWarp
# ----------------------------------------------------------------------
def run_swarp(
    system: str = "cori",
    bb_mode: BBMode = BBMode.PRIVATE,
    input_fraction: float = 1.0,
    intermediates_in_bb: bool = True,
    outputs_in_bb: bool = False,
    n_pipelines: int = 1,
    cores_per_task: int = 32,
    include_stage_in: bool = True,
    emulated: bool = False,
    seed: Optional[int] = None,
    n_bb_nodes: int = 2,
    resample_flops: Optional[float] = None,
    combine_flops: Optional[float] = None,
    effects: Optional[EmulationEffects] = None,
    observer: Optional[Observer] = None,
    network_allocator: Optional[str] = None,
) -> ScenarioResult:
    """Run one SWarp configuration on a single compute node.

    Parameters mirror the paper's experimental knobs: the staged input
    fraction (Figures 4/5/10), the intermediate-file tier (Figure 5's
    BB-vs-PFS panels), cores per task (Figure 6), and concurrent
    pipelines (Figures 7/8/11).  ``bb_mode`` selects Cori's private or
    striped allocation; on Summit it is ignored (on-node BB).
    ``network_allocator`` names the bandwidth-sharing discipline
    (``None`` keeps the default max-min model).
    """
    if system not in SYSTEMS:
        raise ValueError(f"system must be one of {SYSTEMS}, got {system!r}")
    _validate_fraction("input_fraction", input_fraction)

    if system == "cori":
        spec = cori_spec(n_compute=1, n_bb_nodes=n_bb_nodes)
    else:
        spec = summit_spec(n_compute=1)
    workflow = make_swarp(
        n_pipelines=n_pipelines,
        cores_per_task=cores_per_task,
        include_stage_in=include_stage_in,
    )
    if resample_flops is not None or combine_flops is not None:
        workflow = _override_swarp_flops(workflow, resample_flops, combine_flops)

    config = Config(
        bb_mode=bb_mode,
        input_fraction=input_fraction,
        intermediate_fraction=1.0 if intermediates_in_bb else 0.0,
        output_fraction=1.0 if outputs_in_bb else 0.0,
        network_allocator=network_allocator or DEFAULT_ALLOCATOR,
    )
    emulation = SIMPLE_MODEL
    if emulated:
        from repro.emulation import SWARP_TRUTH, effects_for, emulate

        spec, emulation = emulate(
            spec, effects or effects_for(system), seed, config,
            truth=SWARP_TRUTH,
        )
    engine = _execute(
        spec, workflow, config, stage_in_external=not emulated,
        observer=observer, emulation=emulation,
    )
    return ScenarioResult(
        trace=engine.trace, platform=engine.platform, engine=engine,
        workflow=workflow,
    )


def _override_swarp_flops(
    workflow: Workflow,
    resample_flops: Optional[float],
    combine_flops: Optional[float],
) -> Workflow:
    """Rebuild a SWarp workflow with calibrated task flops (Eq. 4 output)."""
    tasks = []
    for task in workflow:
        if task.group == "resample" and resample_flops is not None:
            tasks.append(replace(task, flops=resample_flops))
        elif task.group == "combine" and combine_flops is not None:
            tasks.append(replace(task, flops=combine_flops))
        else:
            tasks.append(task)
    return Workflow(workflow.name, tasks)


# ----------------------------------------------------------------------
# 1000Genomes
# ----------------------------------------------------------------------
def run_genomes(
    system: str = "cori",
    input_fraction: float = 1.0,
    n_chromosomes: int = 22,
    n_compute: int = 8,
    cores_per_task: int = 1,
    emulated: bool = False,
    seed: Optional[int] = None,
    n_bb_nodes: int = 1,
    effects: Optional[EmulationEffects] = None,
    observer: Optional[Observer] = None,
    network_allocator: Optional[str] = None,
) -> ScenarioResult:
    """Run the 1000Genomes case study (Section IV-C).

    On Cori the BB is a *single* dedicated node in striped mode (the
    paper conjectures more BB nodes would lift the plateau it observes
    at ~80% staged input); on Summit each node uses its local NVMe.
    Inputs are prestaged (the paper's case study does not charge
    staging time).
    """
    if system not in SYSTEMS:
        raise ValueError(f"system must be one of {SYSTEMS}, got {system!r}")
    _validate_fraction("input_fraction", input_fraction)
    if n_compute <= 0:
        raise ValueError("n_compute must be positive")
    if n_bb_nodes <= 0:
        raise ValueError("n_bb_nodes must be positive")

    if system == "cori":
        spec = cori_spec(n_compute=n_compute, n_bb_nodes=n_bb_nodes)
    else:
        spec = summit_spec(n_compute=n_compute)
    workflow = make_1000genomes(
        n_chromosomes=n_chromosomes, cores_per_task=cores_per_task
    )
    config = Config(
        bb_mode=BBMode.STRIPED,
        input_fraction=input_fraction,
        intermediate_fraction=1.0,
        output_fraction=0.0,
        network_allocator=network_allocator or DEFAULT_ALLOCATOR,
    )
    emulation = SIMPLE_MODEL
    if emulated:
        from repro.emulation import effects_for, emulate

        spec, emulation = emulate(
            spec, effects or effects_for(system), seed, config
        )
    engine = _execute(
        spec, workflow, config, observer=observer, emulation=emulation
    )
    return ScenarioResult(
        trace=engine.trace, platform=engine.platform, engine=engine,
        workflow=workflow,
    )


# ----------------------------------------------------------------------
# Contended multi-job burst buffer (queue-policy comparison scenario)
# ----------------------------------------------------------------------
#: Deterministic per-job patterns (index i cycles through these): a
#: "whale" allocation every fourth job keeps the granule pool contended
#: while the small jobs behind it are exactly the backfill opportunity
#: the non-FIFO policies exploit.  No randomness — the determinism
#: contract (SIM001) holds for every policy.
_CONTENDED_GRANULES = (6, 4, 2, 2)
_CONTENDED_DURATIONS = (60.0, 20.0, 8.0, 8.0)
_CONTENDED_CORES = (16, 8, 4, 4)

#: Granularity giving 4 granules per 6.4 TB Cori BB node.
CONTENDED_GRANULARITY = 1.6e12


@dataclass(frozen=True)
class ContendedJob:
    """One job of the contended scenario's deterministic arrival list."""

    name: str
    arrival: float
    host: str
    cores: int
    granules: int
    duration: float


def contended_jobs(
    n_jobs: int = 8, n_compute: int = 2
) -> list[ContendedJob]:
    """The deterministic job list of the contended BB scenario.

    Jobs alternate over the compute hosts; sizes/durations follow the
    fixed cycles above, so per-task work totals are identical under
    every queue policy by construction.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    jobs = []
    for i in range(n_jobs):
        jobs.append(
            ContendedJob(
                name=f"job{i}",
                arrival=float(i),
                host=f"cn{i % n_compute}",
                cores=_CONTENDED_CORES[i % len(_CONTENDED_CORES)],
                granules=_CONTENDED_GRANULES[i % len(_CONTENDED_GRANULES)],
                duration=_CONTENDED_DURATIONS[i % len(_CONTENDED_DURATIONS)],
            )
        )
    return jobs


def run_contended(
    n_jobs: int = 8,
    queue_policy: str = "fifo",
    n_compute: int = 2,
    n_bb_nodes: int = 2,
    granularity: float = CONTENDED_GRANULARITY,
    observer: Optional[Observer] = None,
) -> ScenarioResult:
    """Run the contended multi-job shared-BB scenario.

    A scenario family the source paper never runs: many jobs compete
    for one DataWarp granule pool (and for cores), so the queueing
    discipline — ``queue_policy``, a :mod:`repro.wms.policies` registry
    name — decides who waits for what.  Under ``fifo`` a queued whale
    allocation blocks every later job (head-of-line blocking); the
    backfill policies let small jobs jump ahead using their walltime
    estimates; ``plan`` routes each job through the
    :class:`~repro.wms.PlanCoordinator`, co-reserving cores + granules
    as one joint reservation (never holding one while queueing for the
    other).

    Every job appears in the returned trace as one ``job``-group task
    record (ready at its arrival), so
    :func:`repro.profile.build_profile` attributes each policy's
    makespan — including ``wait:bb_capacity`` / ``wait:cores`` — and
    per-policy profiles can be diffed.
    """
    from repro.storage.provisioning import BBProvisioner
    from repro.traces.events import TaskRecord
    from repro.wms.policies import PlanCoordinator, resolve_policy

    resolve_policy(queue_policy)  # fail fast on unknown names
    env = des.Environment()
    if observer is not None:
        observer.attach(env)
    spec = cori_spec(n_compute=n_compute, n_bb_nodes=n_bb_nodes)
    platform = Platform(env, spec)
    hosts = compute_node_names(n_compute)
    plan_based = queue_policy == "plan"
    # Under "plan" every request goes through the coordinator, so the
    # allocator-level queues stay empty and their policy is irrelevant.
    allocator_policy = "fifo" if plan_based else queue_policy
    compute = ComputeService(platform, hosts, queue_policy=allocator_policy)
    provisioner = BBProvisioner(
        platform, granularity=granularity, policy=allocator_policy
    )
    coordinator = PlanCoordinator(compute, provisioner) if plan_based else None

    trace = ExecutionTrace("contended-bb")
    jobs = contended_jobs(n_jobs=n_jobs, n_compute=n_compute)

    def run_job(env, job: ContendedJob):
        yield env.timeout(job.arrival)
        ready = env.now
        size = job.granules * granularity
        if coordinator is not None:
            reservation = yield coordinator.request(
                job.host, job.cores, size,
                job=job.name, estimate=job.duration,
            )
            start = env.now
            yield env.timeout(job.duration)
            reservation.release()
        else:
            # BB allocation first, cores second — the hold-and-wait
            # pattern plan-based scheduling exists to avoid.
            lease = yield provisioner.request(
                size, job=job.name, estimate=job.duration
            )
            allocation = yield compute.acquire_cores(
                job.host, job.cores, task=job.name, estimate=job.duration
            )
            start = env.now
            yield env.timeout(job.duration)
            allocation.release()
            lease.release()
        end = env.now
        trace.add_record(
            TaskRecord(
                name=job.name,
                group="job",
                host=job.host,
                cores=job.cores,
                ready=ready,
                start=start,
                read_start=start,
                read_end=start,
                compute_end=end,
                write_end=end,
                end=end,
            )
        )

    for job in jobs:
        env.process(run_job(env, job))
    env.run()
    if observer is not None:
        # No engine, so no trace: the job records are not engine tasks.
        observer.end_run()
    return ScenarioResult(
        trace=trace, platform=platform, engine=None, workflow=None
    )
