"""Burst buffer services: shared (Cori) and on-node (Summit)."""

from __future__ import annotations

import enum
import zlib
from typing import Optional, Sequence

from repro.des import Event
from repro.platform.presets import BB_DISK
from repro.platform.runtime import Platform
from repro.storage.base import (
    AccessDeniedError,
    ServiceLatencies,
    StorageService,
)
from repro.workflow.model import File


class BBMode(str, enum.Enum):
    """Cray DataWarp allocation modes for shared burst buffers.

    PRIVATE pins each compute node's files to one BB node and restricts
    access to the creating node (better metadata handling); STRIPED
    spreads every file in chunks over all BB nodes and allows any node
    to access it (optimized for N:1 shared-file patterns).
    """

    PRIVATE = "private"
    STRIPED = "striped"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SharedBurstBuffer(StorageService):
    """Remote-shared burst buffer on dedicated nodes (Cori, Figure 1a).

    Parameters
    ----------
    platform:
        Runtime platform exposing the BB nodes as hosts.
    bb_hosts:
        The dedicated BB node host names.
    mode:
        DataWarp allocation mode.
    owner_host:
        In PRIVATE mode, the compute node owning this allocation (reads
        and writes from any other host raise :class:`AccessDeniedError`).
    per_stripe_latency:
        STRIPED-mode metadata cost per chunk (emulation knob; the simple
        model leaves it at zero).
    max_stream_rate:
        Per-flow POSIX stream cap (emulation knob).
    capacity:
        Optional capacity clamp in bytes (a provisioned DataWarp
        allocation enforces its *granted* size, not the device sum).
        Applied at construction so capacity gauges and the occupancy
        monitor see the clamped value from the first sample; the
        effective capacity is ``min(device sum, capacity)``.
    """

    def __init__(
        self,
        platform: Platform,
        bb_hosts: Sequence[str],
        mode: BBMode = BBMode.PRIVATE,
        owner_host: Optional[str] = None,
        disk: str = BB_DISK,
        name: Optional[str] = None,
        latencies: Optional[ServiceLatencies] = None,
        per_stripe_latency: float = 0.0,
        max_stream_rate: float = float("inf"),
        metadata_service_time: float = 0.0,
        capacity: Optional[float] = None,
    ) -> None:
        if not bb_hosts:
            raise ValueError("at least one BB host is required")
        if mode == BBMode.PRIVATE and owner_host is None:
            raise ValueError("PRIVATE mode requires an owner_host")
        if per_stripe_latency < 0:
            raise ValueError("per_stripe_latency must be non-negative")

        device_capacity = sum(
            platform.host(h).disk(disk).capacity for h in bb_hosts
        )
        capacity = (
            device_capacity
            if capacity is None
            else min(device_capacity, capacity)
        )
        super().__init__(
            name or f"bb-{mode.value}",
            platform,
            capacity,
            latencies,
            metadata_service_time=metadata_service_time,
        )
        self.bb_hosts = list(bb_hosts)
        self.mode = mode
        self.owner_host = owner_host
        self.disk = disk
        self.per_stripe_latency = per_stripe_latency
        self.max_stream_rate = max_stream_rate
        # PRIVATE mode: deterministic assignment of this namespace to one
        # BB node (DataWarp pins a private allocation's files together).
        # adler32, not hash(): str hashes are salted per interpreter.
        # Its checksum spreads consecutively numbered owners (cn0, cn1,
        # ...) over the nodes in turn.
        self._private_node = self.bb_hosts[
            (zlib.adler32(owner_host.encode()) if owner_host else 0)
            % len(self.bb_hosts)
        ]

    # ------------------------------------------------------------------
    def _check_access(self, host: str) -> None:
        if self.mode == BBMode.PRIVATE and host != self.owner_host:
            raise AccessDeniedError(
                f"{self.name}: private allocation owned by "
                f"{self.owner_host!r}; access from {host!r} denied"
            )

    def _write_flow(self, file: File, src_host: str) -> Event:
        self._check_access(src_host)
        if self.mode == BBMode.PRIVATE:
            return self.platform.write_to_disk(
                file.size,
                self._private_node,
                self.disk,
                src_host=src_host,
                extra_latency=self.latencies.write,
                max_rate=self.max_stream_rate,
                label=f"{self.name}:write:{file.name}",
            )
        return self._striped_transfer(file, src_host, write=True)

    def _read_flow(self, file: File, dest_host: str) -> Event:
        self._check_access(dest_host)
        if self.mode == BBMode.PRIVATE:
            return self.platform.read_from_disk(
                file.size,
                self._private_node,
                self.disk,
                dest_host=dest_host,
                extra_latency=self.latencies.read,
                max_rate=self.max_stream_rate,
                label=f"{self.name}:read:{file.name}",
            )
        return self._striped_transfer(file, dest_host, write=False)

    def _striped_transfer(self, file: File, host: str, write: bool) -> Event:
        """One chunk per BB node, all in parallel; done when all land.

        The chunks start at once, and a countdown callback on each one
        fires ``done`` when the last lands (or fails it with the first
        chunk that fails).

        Each chunk pays the per-stripe metadata latency — this is what
        makes striped mode disastrous for many-small-files patterns
        (paper Figure 5b/5e) while still fine for large files.
        """
        n = len(self.bb_hosts)
        chunk = file.size / n
        op_latency = self.latencies.write if write else self.latencies.read
        move = self.platform.write_to_disk if write else self.platform.read_from_disk
        done = self.env.event()
        unfinished = n

        def chunk_done(event: Event) -> None:
            nonlocal unfinished
            if not event._ok:
                # The first failed chunk fails the file; a failed file
                # never counts down to zero.
                event.defuse()
                if not done.triggered:
                    done.fail(event._value)
                return
            unfinished -= 1
            if unfinished == 0:
                done.succeed(file)

        for bb in self.bb_hosts:
            move(
                chunk,
                bb,
                self.disk,
                host,
                extra_latency=op_latency + self.per_stripe_latency,
                max_rate=self.max_stream_rate,
                label=f"{self.name}:stripe:{file.name}@{bb}",
            ).callbacks.append(chunk_done)
        return done


class OnNodeBurstBuffer(StorageService):
    """Node-local NVMe burst buffer (Summit, Figure 1b).

    One service instance per compute node.  Local access rides the PCIe
    route; remote access (another node reading this buffer) rides the
    compute fabric plus the remote PCIe — possible but slower, matching
    the paper's observation that sharing files across on-node BBs "is
    not trivial" yet data movement between local BBs is affordable.
    """

    def __init__(
        self,
        platform: Platform,
        bb_host: str,
        disk: str = BB_DISK,
        name: Optional[str] = None,
        latencies: Optional[ServiceLatencies] = None,
        max_stream_rate: float = float("inf"),
    ) -> None:
        capacity = platform.host(bb_host).disk(disk).capacity
        super().__init__(name or f"bb-local:{bb_host}", platform, capacity, latencies)
        self.bb_host = bb_host
        self.disk = disk
        self.max_stream_rate = max_stream_rate

    def _write_flow(self, file: File, src_host: str) -> Event:
        return self.platform.write_to_disk(
            file.size,
            self.bb_host,
            self.disk,
            src_host=src_host,
            extra_latency=self.latencies.write,
            max_rate=self.max_stream_rate,
            label=f"{self.name}:write:{file.name}",
        )

    def _read_flow(self, file: File, dest_host: str) -> Event:
        return self.platform.read_from_disk(
            file.size,
            self.bb_host,
            self.disk,
            dest_host=dest_host,
            extra_latency=self.latencies.read,
            max_rate=self.max_stream_rate,
            label=f"{self.name}:read:{file.name}",
        )
