"""Vocabulary shared by the per-file rules and the whole-program analyses.

Two catalogs live here so that a rule and the analysis covering the
same hazard cannot drift apart:

* **determinism** — wall-clock reads and process-global RNG calls.
  SIM001/SIM002 flag the calls themselves; SIM100 treats their results
  as nondeterminism sources and follows them to DES-visible sinks.
  Two differences are deliberate:

  - ``random.seed()`` and ``numpy.random.seed()`` are SIM002 findings
    (they reseed shared state) but not SIM100 value sources (they
    return ``None``);
  - ``min``/``max`` sanitize for SIM100 (the value they return does not
    depend on iteration order), but SIM003 still flags them over sets
    and dict views in ``wms/`` and ``des/``, because *which* of several
    tied elements wins does depend on it.

* **units** — the :mod:`repro.platform.units` constants with their
  dimension (SIM201/SIM202) and decimal/binary family (SIM010/SIM011),
  plus the one magnitude threshold above which a bare literal counts as
  a raw, unit-bearing quantity.
"""

from __future__ import annotations

import ast
from typing import Optional

# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

#: Wall-clock entry points (resolved through import aliases).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` module attributes that construct *explicit* generators —
#: these are fine; everything else on the module is the shared global RNG.
RANDOM_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})

#: ``numpy.random`` attributes that construct explicit generators/seeds.
NUMPY_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Global-RNG calls that reseed rather than draw: SIM002, not SIM100.
GLOBAL_RNG_SEEDS = frozenset({"random.seed", "numpy.random.seed"})


def global_rng_family(name: Optional[str]) -> Optional[str]:
    """``"random"`` or ``"numpy"`` when ``name`` calls a process-global
    RNG, else None."""
    if name is None:
        return None
    if name.startswith("random.") and name not in RANDOM_CONSTRUCTORS:
        return "random"
    if (
        name.startswith("numpy.random.")
        and name.removeprefix("numpy.random.") not in NUMPY_RANDOM_CONSTRUCTORS
    ):
        return "numpy"
    return None


def is_set_expr(node: ast.AST) -> bool:
    """A set display, set comprehension, or ``set(...)``/``frozenset(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------

#: repro.platform.units constant -> (dimension name, unit family).  The
#: family is None for constants outside the decimal/binary byte families.
UNITS: dict[str, tuple[str, Optional[str]]] = {
    **{name: ("bytes", "decimal") for name in ("KB", "MB", "GB", "TB")},
    **{name: ("bytes", "binary") for name in ("KiB", "MiB", "GiB", "TiB")},
    # The paper quotes core speeds (flop/s); task work in flops is
    # written as  work = x * GFLOPS * seconds  at call sites.
    **{name: ("flops/s", "decimal") for name in ("MFLOPS", "GFLOPS", "TFLOPS")},
    **{name: ("seconds", None) for name in ("US", "MS", "MINUTE", "HOUR")},
}

#: Unit constant -> "decimal" / "binary", for the constants that have one.
UNIT_FAMILIES: dict[str, str] = {
    name: family for name, (_, family) in UNITS.items() if family is not None
}

#: Magnitudes below this are unit-free scalars (counts, percentages,
#: small factors) rather than raw byte/flop/second quantities.
MAGNITUDE_THRESHOLD = 1000
