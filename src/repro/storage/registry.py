"""File registry: which services hold which files."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.storage.base import FileNotOnService, StorageService
from repro.workflow.model import File


class FileRegistry:
    """Location catalogue mapping file names to the services holding them.

    The workflow engine consults the registry to decide where to read a
    task's inputs from and records new locations as outputs are written
    (the analogue of WRENCH's FileRegistryService).
    """

    def __init__(self) -> None:
        self._locations: dict[str, list[StorageService]] = {}

    def register(self, file: File, service: StorageService) -> None:
        """Record that ``service`` holds ``file``."""
        services = self._locations.setdefault(file.name, [])
        if service not in services:
            services.append(service)

    def locations(self, file: File) -> list[StorageService]:
        """All services holding ``file`` (possibly empty)."""
        return list(self._locations.get(file.name, []))

    def lookup(
        self,
        file: File,
        prefer: Optional[Iterable[StorageService]] = None,
        reader_host: Optional[str] = None,
    ) -> StorageService:
        """Pick a service to read ``file`` from.

        Preference order: services in ``prefer`` (first match wins), then
        the most recently registered location — a copy staged into a
        fast tier after the original shadows it, cache-style.
        ``reader_host`` filters out services the reader cannot access
        (private BB allocations owned by another node).

        Raises :class:`FileNotOnService` if no accessible copy exists.
        """
        candidates = self.locations(file)
        if reader_host is not None:
            candidates = [
                s for s in candidates if _accessible(s, reader_host)
            ]
        if not candidates:
            raise FileNotOnService(
                f"no accessible copy of {file.name!r}"
                + (f" for host {reader_host!r}" if reader_host else "")
            )
        if prefer is not None:
            for preferred in prefer:
                if preferred in candidates:
                    return preferred
        return candidates[-1]

    def has(self, file: File) -> bool:
        return bool(self._locations.get(file.name))

    def __len__(self) -> int:
        return len(self._locations)


def _accessible(service: StorageService, host: str) -> bool:
    owner = getattr(service, "owner_host", None)
    mode = getattr(service, "mode", None)
    if owner is not None and getattr(mode, "value", None) == "private":
        return host == owner
    return True
