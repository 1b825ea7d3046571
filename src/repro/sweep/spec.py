"""Sweep specifications: named point sets with stable identities.

A :class:`SweepSpec` describes *what* to run — a point function plus a
list of parameter dictionaries — without saying anything about *how*
(workers and cache are :func:`repro.sweep.runner.run_sweep`
concerns).  Specs are plain data: every parameter value must be
JSON-representable so points can cross process boundaries and key the
on-disk cache.

Point ids are derived from the parameters alone (``k=v`` pairs joined
in sorted-key order), so they are stable across runs, Python versions,
and the order axes were declared in.
"""

from __future__ import annotations

import importlib
import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

#: Characters allowed verbatim in a point-id directory name; anything
#: else is replaced so per-point telemetry dirs are filesystem-safe.
_UNSAFE = re.compile(r"[^A-Za-z0-9._=,+-]")


def _format_value(value: Any) -> str:
    """Canonical text for one parameter value inside a point id."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def point_id(params: Mapping[str, Any]) -> str:
    """Stable identity of one sweep point: ``k=v`` pairs, keys sorted."""
    if not params:
        raise ValueError("a sweep point needs at least one parameter")
    return ",".join(f"{k}={_format_value(params[k])}" for k in sorted(params))


def sanitize_point_id(pid: str) -> str:
    """A filesystem-safe directory name for a point id."""
    return _UNSAFE.sub("_", pid)


def resolve_func(ref: str) -> Callable[..., Any]:
    """Import the point function behind a ``"pkg.mod:callable"`` reference."""
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"point function reference {ref!r} must look like 'pkg.mod:callable'"
        )
    module = importlib.import_module(module_name)
    try:
        func = getattr(module, attr)
    except AttributeError:
        raise ValueError(f"{module_name!r} has no attribute {attr!r}") from None
    if not callable(func):
        raise ValueError(f"{ref!r} does not reference a callable")
    return func


def _check_json_plain(pid: str, params: Mapping[str, Any]) -> None:
    try:
        text = json.dumps(params, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"point {pid!r} has non-JSON-representable parameters: {error}"
        ) from None
    # Round-trip must be lossless (tuples, numpy scalars, etc. are not).
    if json.loads(text) != dict(params):
        raise ValueError(
            f"point {pid!r} parameters do not survive a JSON round trip; "
            "use plain int/float/str/bool/list values"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A deterministic set of sweep points over one point function.

    Parameters
    ----------
    sweep_id:
        Campaign name (``"fig13"``); namespaces cache keys and ids.
    func:
        ``"pkg.mod:callable"`` reference to a module-level function
        ``f(params: dict) -> value`` (value must be JSON-representable).
        A dotted reference — not a closure — so worker processes can
        import it.
    points:
        The parameter dictionaries, one per point.
    version:
        Code-version salt for the cache: bump it whenever the point
        function's semantics change so stale cache entries die.
    pass_obs_dir:
        When true and the runner was given an ``obs_dir``, the point
        function is called as ``f(params, obs_dir=<dir>)`` with its
        private per-point telemetry directory.
    """

    sweep_id: str
    func: str
    points: tuple[Mapping[str, Any], ...] = field(default_factory=tuple)
    version: int = 1
    pass_obs_dir: bool = False

    def __post_init__(self) -> None:
        if not self.sweep_id:
            raise ValueError("sweep_id must be non-empty")
        if ":" not in self.func:
            raise ValueError(
                f"func {self.func!r} must be a 'pkg.mod:callable' reference"
            )
        object.__setattr__(self, "points", tuple(dict(p) for p in self.points))
        seen: dict[str, str] = {}
        for params in self.points:
            pid = point_id(params)
            _check_json_plain(pid, params)
            safe = sanitize_point_id(pid)
            if seen.get(safe) == pid:
                raise ValueError(f"duplicate sweep point {pid!r}")
            if safe in seen:
                raise ValueError(
                    f"points {seen[safe]!r} and {pid!r} collide after "
                    "filesystem sanitization"
                )
            seen[safe] = pid

    @classmethod
    def cartesian(
        cls,
        sweep_id: str,
        func: str,
        axes: Mapping[str, Sequence[Any]],
        *,
        constants: Mapping[str, Any] | None = None,
        version: int = 1,
        pass_obs_dir: bool = False,
    ) -> "SweepSpec":
        """Build the full cross product of ``axes`` (plus ``constants``)."""
        if not axes:
            raise ValueError("cartesian sweep needs at least one axis")
        names = list(axes)
        points = [
            {**(constants or {}), **dict(zip(names, combo))}
            for combo in itertools.product(*(axes[n] for n in names))
        ]
        return cls(
            sweep_id=sweep_id,
            func=func,
            points=tuple(points),
            version=version,
            pass_obs_dir=pass_obs_dir,
        )

    @property
    def point_ids(self) -> tuple[str, ...]:
        """All point ids, in deterministic (sorted) execution order."""
        return tuple(sorted(point_id(p) for p in self.points))

    def points_by_id(self) -> dict[str, Mapping[str, Any]]:
        """Point id → parameters, in deterministic (sorted) order."""
        indexed = {point_id(p): p for p in self.points}
        return {pid: indexed[pid] for pid in sorted(indexed)}

    def __len__(self) -> int:
        return len(self.points)
