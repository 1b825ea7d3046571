"""Platform descriptions: hosts, disks, links, routes, and presets.

A :class:`PlatformSpec` is a declarative description of an execution
platform (the analogue of WRENCH/SimGrid's platform XML file).  It can be
written/read as JSON and instantiated into a live :class:`Platform`
bound to a DES environment, which owns the flow network and routing
table used by the storage and compute services.

The :mod:`repro.platform.presets` module encodes Table I of the paper:
the calibrated Cori (shared burst buffer) and Summit (on-node burst
buffer) platforms.
"""

from repro.platform.spec import (
    DiskSpec,
    HostRole,
    HostSpec,
    LinkSpec,
    PlatformSpec,
    RouteSpec,
)
from repro.platform.runtime import Platform
from repro.platform.serialization import platform_from_json, platform_to_json
from repro.platform import presets
from repro.platform import units

__all__ = [
    "DiskSpec",
    "HostRole",
    "HostSpec",
    "LinkSpec",
    "Platform",
    "PlatformSpec",
    "RouteSpec",
    "platform_from_json",
    "platform_to_json",
    "presets",
    "units",
]
