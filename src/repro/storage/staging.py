"""Data staging between storage services (disk-to-disk copies)."""

from __future__ import annotations

from typing import Optional

from repro.des import Event
from repro.storage.base import FileNotOnService, StorageService
from repro.storage.burst_buffer import OnNodeBurstBuffer, SharedBurstBuffer
from repro.storage.pfs import ParallelFileSystem
from repro.storage.registry import FileRegistry
from repro.workflow.model import File


def _service_endpoint(service: StorageService, peer_host: Optional[str]) -> tuple[str, str]:
    """The (host, disk) a disk-to-disk flow should target on ``service``.

    For striped shared BBs the first BB node stands in for the whole
    allocation (the staging chunking is handled by the per-chunk path of
    normal reads/writes; for stage-in the paper's stage-in task is
    sequential anyway).
    """
    if isinstance(service, ParallelFileSystem):
        return service.host, service.disk
    if isinstance(service, OnNodeBurstBuffer):
        return service.bb_host, service.disk
    if isinstance(service, SharedBurstBuffer):
        if service.mode.value == "private":
            return service._private_node, service.disk
        return service.bb_hosts[0], service.disk
    raise TypeError(f"unsupported service type {type(service).__name__}")


def stage_file(
    file: File,
    source: StorageService,
    target: StorageService,
    registry: Optional[FileRegistry] = None,
) -> Event:
    """Copy ``file`` from ``source`` to ``target`` (disk-to-disk).

    The flow traverses the source's read channel, the network route
    between the two services' hosts, and the target's write channel.
    On completion the file is registered on the target (and in the
    registry, if given).  Capacity on the target is reserved up front.
    """
    if not source.contains(file):
        raise FileNotOnService(f"{source.name}: no file {file.name!r}")
    if source is target or target.contains(file):
        # Already in place: complete immediately (zero-cost no-op).
        done = source.env.event()
        done.succeed(file)
        if registry is not None:
            registry.register(file, target)
        return done

    target.add_file(file)
    source._notify_op("stage", file.size)
    target._notify_op("stage", file.size)

    src = _service_endpoint(source, None)
    dst = _service_endpoint(target, None)
    # Stage-in copies pay the target's stage-in latency, the services'
    # per-op latencies and their metadata costs (stage-in is
    # sequential, so queueing == plain delay).
    latency = (
        target.latencies.stage_in
        + source.latencies.read
        + target.latencies.write
        + source.metadata_service_time
        + target.metadata_service_time
    )
    transfer = source.platform.transfer_between_disks(
        file.size,
        src,
        dst,
        extra_latency=latency,
        label=f"stage:{file.name}:{source.name}->{target.name}",
    )
    if registry is not None:
        done = source.env.event()

        def finish(transfer: Event) -> None:
            # A failed copy registers nothing and fails ``done`` with it.
            if transfer._ok:
                registry.register(file, target)
                done.succeed(file)
            else:
                transfer.defuse()
                done.fail(transfer._value)

        transfer.callbacks.append(finish)
        return done
    return transfer
