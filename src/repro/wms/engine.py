"""The workflow execution engine.

Execution semantics (per compute task):

1. wait for all parent tasks;
2. acquire the task's cores on its assigned host (FIFO);
3. read all input files concurrently (flows share bandwidth max-min);
4. compute for the Amdahl duration;
5. write all output files concurrently to their placement tier;
6. release cores; signal completion.

Each task has exactly one DES process, started when its last parent
finishes (a per-task count of unfinished parents, decremented by a
callback on each parent's completion event).  Every other wait is a
callback on the event it waits for: per-file I/O logging here, stripe
joins and metadata-server gating in :mod:`repro.storage`, and latency
delays in :class:`~repro.network.FlowNetwork`.  A phase waiting on one
event yields it directly; only two or more build an ``AllOf``.

Stage-in tasks (``TaskCategory.STAGE_IN``) are executed as *sequential*
PFS→BB copies of the external input files the placement policy sends to
the BB (the paper: "the stage-in task is always sequential").

Workflows without an explicit stage-in task are *prestaged*: BB-bound
inputs appear on the BB at t = 0 at no cost, matching the paper's
1000Genomes case study where staging happens before the measured
execution.  A placement that stages no inputs (``input_fraction=0``)
prestages nothing.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.compute.service import ComputeService
from repro.des import Environment, Event
from repro.obs.waits import WaitCause
from repro.platform.runtime import Platform
from repro.storage.base import StorageService
from repro.storage.registry import FileRegistry, _accessible
from repro.storage.staging import stage_file
from repro.traces.events import ExecutionTrace, IOOperation, TaskRecord
from repro.wms.placement import PlacementPolicy, Tier
from repro.workflow.model import File, Task, TaskCategory, Workflow


class WorkflowEngine:
    """Executes one workflow on a platform and returns its trace.

    Parameters
    ----------
    platform:
        The runtime platform.
    workflow:
        The DAG to execute.
    compute:
        Compute service managing the execution hosts.
    pfs:
        The global PFS service (holds all external inputs initially).
    bb_for_host:
        Maps a compute host name to its burst-buffer service (private
        allocation on Cori, local NVMe on Summit, or a single shared
        service for striped mode).  ``None`` disables the BB tier
        entirely (pure-PFS baseline).
    placement:
        The data placement policy.
    host_assignment:
        Task → host name.  Defaults to round-robin over compute hosts by
        pipeline-friendly grouping (tasks sharing a name suffix after the
        last ``_`` tend to co-locate); pass an explicit callable for full
        control.
    stage_in_external:
        Stage-in ingests from an infinitely fast external source
        (charging only the BB ingest path) instead of copying
        disk-to-disk from the PFS.  The paper's simple simulator behaves
        this way — it is what makes its makespan *decrease* with the
        staged fraction while the measured one increases (the Figure 10a
        trend inversion).
    """

    def __init__(
        self,
        platform: Platform,
        workflow: Workflow,
        compute: ComputeService,
        pfs: StorageService,
        bb_for_host: "Optional[Callable[[str], StorageService]]" = None,
        placement: Optional[PlacementPolicy] = None,
        host_assignment: Optional[Callable[[Task], str]] = None,
        *,
        stage_in_external: bool = False,
    ) -> None:
        from repro.wms.placement import AllPFS

        self.platform = platform
        self.env: Environment = platform.env
        self.workflow = workflow
        self.compute = compute
        self.pfs = pfs
        self.bb_for_host = bb_for_host
        self.placement = (placement or AllPFS()).bind(workflow)
        self.stage_in_external = stage_in_external
        self.registry = FileRegistry()
        self.trace = ExecutionTrace(workflow.name)
        self._assignment = host_assignment or self._default_assignment()
        if hasattr(self._assignment, "attach"):
            self._assignment.attach(self)  # dynamic Scheduler instances
        #: Task name → decided host.  Assignments are memoized so that a
        #: stateful scheduler gives one answer per task no matter how
        #: often the engine consults it (placement resolution asks for
        #: consumer hosts ahead of time).
        self._host_cache: dict[str, str] = {}
        self._task_done: dict[str, Event] = {}
        #: Task name → parents not yet finished, for tasks not yet ready.
        self._unfinished_parents: dict[str, int] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _default_assignment(self) -> Callable[[Task], str]:
        hosts = self.compute.hosts
        order = {t.name: i for i, t in enumerate(self.workflow.topological_order())}

        def assign(task: Task) -> str:
            return hosts[order[task.name] % len(hosts)]

        return assign

    def _bb_service(self, host: str) -> Optional[StorageService]:
        if self.bb_for_host is None:
            return None
        return self.bb_for_host(host)

    def _host_of(self, task: Task) -> str:
        host = self._host_cache.get(task.name)
        if host is None:
            host = self._assignment(task)
            self._host_cache[task.name] = host
        return host

    def _initialize_files(self) -> None:
        """Populate the PFS with external inputs and prestage the
        BB-bound ones when the workflow has no stage-in task."""
        has_stage_in = any(
            t.category == TaskCategory.STAGE_IN for t in self.workflow
        )
        staged = set(self.placement.staged_input_names(self.workflow))
        # Prestaged files are spread round-robin over the hosts' BBs
        # WITHOUT consulting the task scheduler: asking it at t = 0 would
        # pin every consumer to one idle host before execution starts,
        # defeating dynamic schedulers.  Locality-aware schedulers then
        # follow the data instead of the data following a guess.
        hosts = self.compute.hosts
        prestage_index = 0
        for f in self.workflow.external_input_files():
            self.pfs.add_file(f)
            self.registry.register(f, self.pfs)
            if not has_stage_in and f.name in staged:
                bb = self._bb_service(hosts[prestage_index % len(hosts)])
                prestage_index += 1
                if bb is not None:
                    bb.add_file(f)
                    self.registry.register(f, bb)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> Event:
        """Launch the workflow inside an already-running simulation.

        Starts each task's process once its last parent has finished and
        returns an event that fires when every task has completed —
        composable with other simulated activity (e.g. a batch-job body
        running an engine on its allocated nodes).  Use :meth:`run` when
        the engine owns the event loop.
        """
        if self._started:
            raise RuntimeError("engine instances are single-use")
        self._started = True
        self._initialize_files()

        task_done = self._task_done
        for task in self.workflow:
            task_done[task.name] = self.env.event()
        obs = self.env.obs
        for task in self.workflow:
            parents = self.workflow.parents(task.name)
            if not parents:
                self.env.process(self._run_task(task))
                continue
            if obs is not None:
                obs.on_task_blocked(task.name, WaitCause.DEPENDENCY)
            self._unfinished_parents[task.name] = len(parents)
            on_parent_done = partial(self._parent_done, task)
            for parent in parents:
                task_done[parent.name].callbacks.append(on_parent_done)
        return self.env.all_of(list(task_done.values()))

    def run(self, until: Optional[float] = None) -> ExecutionTrace:
        """Execute the workflow to completion; returns the trace."""
        done = self.start()
        if until is not None:
            self.env.run(until=until)
        else:
            self.env.run(until=done)
        return self.trace

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    # ------------------------------------------------------------------
    def _parent_done(self, task: Task, _done: Event) -> None:
        """Count one finished parent; start ``task`` after the last."""
        left = self._unfinished_parents[task.name] - 1
        if left:
            self._unfinished_parents[task.name] = left
            return
        del self._unfinished_parents[task.name]
        obs = self.env.obs
        if obs is not None:
            obs.on_task_unblocked(task.name, WaitCause.DEPENDENCY)
        self.env.process(self._run_task(task))

    def _run_task(self, task: Task):
        host = self._host_of(task)
        record = TaskRecord(
            name=task.name,
            group=task.group or task.category.value,
            host=host,
            cores=task.cores,
            ready=self.env.now,
        )

        if task.category == TaskCategory.STAGE_IN:
            yield from self._run_stage_in(task, host, record)
        elif task.category == TaskCategory.STAGE_OUT:
            yield from self._run_stage_out(task, host, record)
        else:
            yield from self._run_compute_task(task, host, record)

        record.end = self.env.now
        self.trace.add_record(record)
        obs = self.env.obs
        if obs is not None:
            obs.on_task_complete(record, task.category.value)
        self._task_done[task.name].succeed(task.name)

    def _run_stage_in(self, task: Task, host: str, record: TaskRecord):
        """Sequential PFS→BB copies for BB-bound inputs."""
        allocation = yield self.compute.acquire_cores(host, 1, task=task.name)
        record.start = self.env.now
        record.read_start = self.env.now
        try:
            staged = set(self.placement.staged_input_names(self.workflow))
            for f in sorted(task.outputs, key=lambda f: f.name):
                if f.name not in staged:
                    continue  # stays on the PFS, no movement
                consumers = self.workflow.consumers_of(f.name)
                target_host = (
                    self._host_of(consumers[0]) if consumers else host
                )
                bb = self._bb_service(target_host)
                if bb is None:
                    continue
                if self.stage_in_external:
                    yield self._logged_io(task, f, bb, "stage_in", bb.write(f, host))
                    self.registry.register(f, bb)
                else:
                    copy = stage_file(f, self.pfs, bb, registry=self.registry)
                    yield self._logged_io(task, f, bb, "stage_in", copy)
        finally:
            allocation.release()
        record.read_end = self.env.now
        record.compute_end = self.env.now
        record.write_end = self.env.now

    def _run_stage_out(self, task: Task, host: str, record: TaskRecord):
        """Sequential BB→PFS drains of the task's input files.

        A stage-out task consumes the files to be archived; any copy
        still living only in a burst buffer is drained to the PFS (the
        "staging out" half of the lifecycle the paper's introduction
        describes).  Files already on the PFS cost nothing.
        """
        allocation = yield self.compute.acquire_cores(host, 1, task=task.name)
        record.start = self.env.now
        record.read_start = self.env.now
        try:
            for f in sorted(task.inputs, key=lambda f: f.name):
                if self.pfs.contains(f):
                    continue
                locations = [
                    s for s in self.registry.locations(f) if s is not self.pfs
                ]
                if not locations:
                    continue
                copy = stage_file(f, locations[0], self.pfs, registry=self.registry)
                yield self._logged_io(task, f, self.pfs, "stage_out", copy)
        finally:
            allocation.release()
        record.read_end = self.env.now
        record.compute_end = self.env.now
        record.write_end = self.env.now

    def _run_compute_task(self, task: Task, host: str, record: TaskRecord):
        cores = min(task.cores, self.compute.allocator(host).total_cores)
        # The compute-phase duration doubles as the walltime estimate
        # backfill queue policies use to protect earlier requests; the
        # default fifo policy ignores it (byte-identical schedules).
        allocation = yield self.compute.acquire_cores(
            host,
            cores,
            task=task.name,
            estimate=self.compute.compute_time(task, host, cores),
        )
        memory_request = self.compute.acquire_memory(host, task.memory)
        if memory_request is not None:
            obs = self.env.obs
            if obs is not None:
                obs.on_task_blocked(task.name, WaitCause.MEMORY, detail=host)
            yield memory_request
            obs = self.env.obs
            if obs is not None:
                obs.on_task_unblocked(task.name, WaitCause.MEMORY)
        record.start = self.env.now  # cores (and memory) granted
        try:
            # --- read phase (all inputs concurrently) ---------------------
            record.read_start = self.env.now
            reads = []
            local_bb = self._bb_service(host)
            prefer = [s for s in (local_bb,) if s is not None]
            for f in task.inputs:
                service = self.registry.lookup(f, prefer=prefer, reader_host=host)
                reads.append(
                    self._logged_io(task, f, service, "read", service.read(f, host))
                )
            if reads:
                yield self._all(reads)
            record.read_end = self.env.now

            # --- compute phase -------------------------------------------
            duration = self.compute.compute_time(task, host, allocation.cores)
            if duration > 0:
                yield self.env.timeout(duration)
            record.compute_end = self.env.now

            # --- write phase (all outputs concurrently) -------------------
            writes = []
            for f in task.outputs:
                service = self._output_target(f, host)
                writes.append(
                    self._logged_io(task, f, service, "write", service.write(f, host))
                )
                self.registry.register(f, service)
            if writes:
                yield self._all(writes)
            record.write_end = self.env.now
        finally:
            allocation.release()
            if memory_request is not None:
                self.compute.release_memory(host, task.memory)

    def _logged_io(
        self, task: Task, f: File, service: StorageService, kind: str, transfer: Event
    ) -> Event:
        """Log ``transfer`` as a per-file I/O operation when it completes
        (a failed transfer logs nothing; the task's process gets the
        failure)."""
        start = self.env.now

        def log(transfer: Event) -> None:
            if not transfer._ok:
                return
            self.trace.log_io(
                IOOperation(
                    task=task.name,
                    file=f.name,
                    service=service.name,
                    kind=kind,
                    size=f.size,
                    start=start,
                    end=self.env.now,
                )
            )

        transfer.callbacks.append(log)
        return transfer

    def _all(self, events: list[Event]) -> Event:
        """The event that fires when every one of ``events`` has."""
        return events[0] if len(events) == 1 else self.env.all_of(events)

    def _output_target(self, f: File, host: str) -> StorageService:
        """Resolve the service an output file should be written to.

        Placement says BB/PFS; BB resolves to the writing host's service.
        If any consumer of the file runs on a host that cannot access
        that BB (private-mode allocations), fall back to the PFS so the
        workflow can always make progress.
        """
        tier = self.placement.tier_of(f, self.workflow)
        if tier != Tier.BB:
            return self.pfs
        bb = self._bb_service(host)
        if bb is None:
            return self.pfs
        # Only private-mode allocations restrict readers; checking the
        # consumers of other BB kinds would needlessly pin their host
        # assignments before they are ready (hurting dynamic schedulers).
        if getattr(bb, "owner_host", None) is not None:
            for consumer in self.workflow.consumers_of(f.name):
                consumer_host = self._host_of(consumer)
                if not _accessible(bb, consumer_host):
                    return self.pfs
        return bb
