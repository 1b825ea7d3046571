"""Compute service: executes task compute phases on multicore hosts."""

from __future__ import annotations

from typing import Optional

from repro.des import Container, Environment, Event
from repro.compute.allocator import AllocationError, CoreAllocation, CoreAllocator
from repro.model.equations import amdahl_time
from repro.platform.runtime import Platform
from repro.workflow.model import Task


class ComputeService:
    """Manages core allocation and compute-phase timing on a set of hosts.

    The compute time of a task on ``p`` cores follows Amdahl's law
    (Eq. 2), with the sequential time derived from the task's flops and
    the host's calibrated core speed.  The paper's headline model uses
    ``alpha = 0`` (perfect speedup); per-task alphas are honored when
    ``use_amdahl_alpha`` is set.
    """

    def __init__(
        self,
        platform: Platform,
        hosts: list[str],
        use_amdahl_alpha: bool = False,
        queue_policy: "str | object | None" = None,
    ) -> None:
        self.platform = platform
        self.env: Environment = platform.env
        if not hosts:
            raise ValueError("compute service needs at least one host")
        self.queue_policy = queue_policy
        self.allocators: dict[str, CoreAllocator] = {
            h: CoreAllocator(
                self.env, platform.host(h).cores, label=h, policy=queue_policy
            )
            for h in hosts
        }
        #: Per-host RAM pools (only for hosts with finite RAM declared).
        self.memory: dict[str, Container] = {}
        for h in hosts:
            ram = platform.host(h).ram
            if ram != float("inf"):
                self.memory[h] = Container(self.env, capacity=ram, init=ram)
        self.use_amdahl_alpha = use_amdahl_alpha

    @property
    def hosts(self) -> list[str]:
        return list(self.allocators)

    def allocator(self, host: str) -> CoreAllocator:
        try:
            return self.allocators[host]
        except KeyError:
            raise KeyError(f"host {host!r} not managed by this service") from None

    def compute_time(self, task: Task, host: str, cores: Optional[int] = None) -> float:
        """Seconds of pure compute for ``task`` on ``cores`` of ``host``."""
        p = cores if cores is not None else task.cores
        speed = self.platform.host(host).core_speed
        tc1 = task.flops / speed
        alpha = task.alpha if self.use_amdahl_alpha else 0.0
        return amdahl_time(tc1, p, alpha)

    def acquire_cores(
        self,
        host: str,
        cores: int,
        task: str = "",
        estimate: Optional[float] = None,
    ) -> Event:
        """Request a core block; fires with a :class:`CoreAllocation`.

        ``task`` names the requester in wait-cause telemetry only;
        ``estimate`` is a walltime hint consumed by backfill queue
        policies (the default ``fifo`` ignores it).
        """
        return self.allocator(host).request(cores, task=task, estimate=estimate)

    def acquire_memory(self, host: str, amount: float) -> Optional[Event]:
        """Reserve ``amount`` bytes of RAM on ``host``.

        Returns None when the host's RAM is unaccounted (infinite) or
        the amount is zero; otherwise an event that fires once the RAM
        is available.  Requests beyond the host's total fail fast.
        """
        if amount <= 0:
            return None
        pool = self.memory.get(host)
        if pool is None:
            return None
        if amount > pool.capacity:
            raise AllocationError(
                f"task needs {amount:.3e} B RAM but host {host!r} has "
                f"{pool.capacity:.3e} B"
            )
        return pool.get(amount)

    def release_memory(self, host: str, amount: float) -> None:
        """Return RAM reserved with :meth:`acquire_memory`."""
        if amount <= 0:
            return
        pool = self.memory.get(host)
        if pool is not None:
            pool.put(amount)

    def run_compute_phase(self, task: Task, host: str, allocation: CoreAllocation) -> Event:
        """Run the compute phase of ``task`` on already-granted cores.

        Returns the completion event (a timeout of the Amdahl duration).
        """
        duration = self.compute_time(task, host, allocation.cores)
        return self.env.timeout(duration, value=task)

    def execute(self, task: Task, host: str) -> Event:
        """Acquire cores, compute, release — the full compute phase.

        Convenience for callers that do their own I/O phases (the
        workflow engine interleaves reads/compute/writes itself).
        """
        done = self.env.event()

        def run():
            allocation = yield self.acquire_cores(host, min(task.cores, self.allocator(host).total_cores))
            try:
                yield self.run_compute_phase(task, host, allocation)
            finally:
                allocation.release()
            done.succeed(task)

        self.env.process(run())
        return done
