"""Storage service interface and common machinery."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.des import Event
from repro.platform.runtime import Platform
from repro.workflow.model import File


class StorageError(Exception):
    """Base class for storage service errors."""


class InsufficientStorage(StorageError):
    """A write would exceed the service's capacity."""


class FileNotOnService(StorageError):
    """A read targeted a file the service does not hold."""


class AccessDeniedError(StorageError):
    """The service's access policy forbids the operation.

    Raised e.g. when a host other than the owner reads from a
    private-mode shared burst buffer allocation.
    """


@dataclass
class ServiceLatencies:
    """Per-operation latencies, in seconds.

    The paper's simple model runs with all-zero latencies; the emulation
    layer sets them to model metadata costs (file open/close, DataWarp
    namespace operations) that dominate small-file performance.
    """

    read: float = 0.0
    write: float = 0.0
    #: Added to every copy staged into the service.
    stage_in: float = 0.0

    def __post_init__(self) -> None:
        if self.read < 0 or self.write < 0 or self.stage_in < 0:
            raise ValueError("latencies must be non-negative")


class StorageService(abc.ABC):
    """A named storage layer files can be written to and read from.

    Concrete services translate reads/writes into flows on the
    platform's network (disk channels + routes) and keep a content
    table with capacity accounting.
    """

    def __init__(
        self,
        name: str,
        platform: Platform,
        capacity: float = float("inf"),
        latencies: Optional[ServiceLatencies] = None,
        metadata_service_time: float = 0.0,
        metadata_parallelism: int = 1,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if metadata_service_time < 0:
            raise ValueError("metadata_service_time must be non-negative")
        if metadata_parallelism <= 0:
            raise ValueError("metadata_parallelism must be positive")
        self.name = name
        self.platform = platform
        self.env = platform.env
        self.capacity = capacity
        self.latencies = latencies or ServiceLatencies()
        self._contents: dict[str, File] = {}
        #: Running total behind :attr:`used`.
        self._used: float = 0
        #: Serialized metadata server: every read/write holds one slot
        #: for ``metadata_service_time`` seconds before its transfer
        #: starts.  Unlike per-flow latency (which concurrent operations
        #: amortize), a busy metadata server *queues* operations — this
        #: is what makes many-small-file patterns catastrophic on
        #: striped DataWarp allocations (paper Figure 5).
        self.metadata_service_time = metadata_service_time
        self._metadata: Optional[object] = None
        if metadata_service_time > 0:
            from repro.des import Resource

            self._metadata = Resource(self.env, capacity=metadata_parallelism)

    # ------------------------------------------------------------------
    # Content table
    # ------------------------------------------------------------------
    @property
    def used(self) -> float:
        """Bytes held: the sizes of the stored files added left to right,
        in storage order (on Python <= 3.11 exactly ``sum(...)``; newer
        ``sum`` compensates rounding)."""
        # Stores only append to ``_contents``, so adding each new size to
        # the running total continues the same left-to-right sum.
        return self._used

    @property
    def free_space(self) -> float:
        return self.capacity - self.used

    def contains(self, file: File) -> bool:
        return file.name in self._contents

    def files(self) -> list[File]:
        return sorted(self._contents.values(), key=lambda f: f.name)

    def add_file(self, file: File) -> None:
        """Register ``file`` as present without simulating a transfer.

        Used to model pre-populated storage (e.g. workflow inputs that
        already live on the PFS before the execution starts).
        """
        if self.contains(file):
            return
        self._reserve(file)
        self._store(file)
        self._notify_occupancy()
        obs = self.env.obs
        if obs is not None:
            obs.log_event(
                "storage", "file_added",
                service=self.name, file=file.name, size=file.size,
                used=self.used,
            )

    def _store(self, file: File) -> None:
        """Append a file the table does not hold yet."""
        self._contents[file.name] = file
        self._used += file.size

    def _notify_occupancy(self) -> None:
        """Publish the occupancy sample after a content-table change."""
        obs = self.env.obs
        if obs is not None:
            obs.on_storage_occupancy(self.name, self.used, self.capacity)

    def _notify_op(self, kind: str, nbytes: float) -> None:
        """Publish one issued operation (``read``/``write``/``stage``)."""
        obs = self.env.obs
        if obs is not None:
            obs.on_storage_op(self.name, kind, nbytes)

    def _reserve(self, file: File) -> None:
        if file.size > self.free_space:
            obs = self.env.obs
            if obs is not None:
                obs.log_event(
                    "storage", "insufficient_storage",
                    service=self.name, file=file.name, need=file.size,
                    free=self.free_space,
                )
            raise InsufficientStorage(
                f"{self.name}: cannot store {file.name!r} "
                f"({file.size:.3e} B > {self.free_space:.3e} B free)"
            )

    # ------------------------------------------------------------------
    # I/O operations
    # ------------------------------------------------------------------
    def write(self, file: File, src_host: str) -> Event:
        """Write ``file`` from ``src_host``'s RAM onto this service.

        Capacity is reserved immediately; the returned event fires when
        the last byte lands, at which point the file becomes readable.
        """
        if not self.contains(file):
            self._reserve(file)
            self._store(file)
            self._notify_occupancy()
        self._notify_op("write", file.size)
        return self._gated(lambda: self._write_flow(file, src_host))

    def read(self, file: File, dest_host: str) -> Event:
        """Read ``file`` from this service into ``dest_host``'s RAM."""
        if not self.contains(file):
            raise FileNotOnService(f"{self.name}: no file {file.name!r}")
        self._notify_op("read", file.size)
        return self._gated(lambda: self._read_flow(file, dest_host))

    def _gated(self, start_transfer) -> Event:
        """Run a transfer behind the metadata server, if one exists.

        The operation queues for a server slot (FIFO), holds it for
        ``metadata_service_time``, releases it and only then starts its
        transfer; the returned event fires with the transfer's value
        (or fails with its exception).  Each step is a callback on the
        event before it.
        """
        metadata = self._metadata
        if metadata is None:
            return start_transfer()
        env = self.env
        done = env.event()
        request = metadata.request()

        def relay(transfer: Event) -> None:
            if not transfer._ok:
                transfer.defuse()  # ``done`` carries the failure on
            done.trigger(transfer)

        def served(_timeout: Event) -> None:
            metadata.release(request)
            start_transfer().callbacks.append(relay)

        def granted(_request: Event) -> None:
            env.timeout(self.metadata_service_time).callbacks.append(served)

        request.callbacks.append(granted)
        return done

    @abc.abstractmethod
    def _write_flow(self, file: File, src_host: str) -> Event:
        """Start the write transfer(s); return the completion event."""

    @abc.abstractmethod
    def _read_flow(self, file: File, dest_host: str) -> Event:
        """Start the read transfer(s); return the completion event."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name!r}: "
            f"{len(self._contents)} files, {self.used:.3e}/{self.capacity:.3e} B>"
        )
