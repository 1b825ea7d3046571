"""The paper's performance model (Section IV-A) and calibration tools.

The calibration fitters (``FitResult``, ``fit_amdahl_alpha``,
``fit_lambda_io``) need scipy (the ``repro[fit]`` extra) and are
imported on first use, so simulating never loads scipy.
"""

from repro.model.equations import (
    amdahl_speedup,
    amdahl_time,
    io_fraction_from_times,
    observed_time,
    sequential_compute_time,
)
from repro.model.metrics import (
    mean_relative_error,
    per_point_relative_error,
    trend_agreement,
)

__all__ = [
    "FitResult",
    "amdahl_speedup",
    "amdahl_time",
    "fit_amdahl_alpha",
    "fit_lambda_io",
    "io_fraction_from_times",
    "mean_relative_error",
    "observed_time",
    "per_point_relative_error",
    "sequential_compute_time",
    "trend_agreement",
]

#: Fit helpers resolved lazily (PEP 562): ``repro.model.fitting`` imports
#: scipy, which no simulation needs.
_FITTING = frozenset({"FitResult", "fit_amdahl_alpha", "fit_lambda_io"})


def __getattr__(name: str):
    if name not in _FITTING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.model import fitting

    value = getattr(fitting, name)
    globals()[name] = value
    return value
