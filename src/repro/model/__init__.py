"""The paper's performance model (Section IV-A) and calibration tools.

The accuracy metrics (numpy) and the calibration fitters (``FitResult``,
``fit_amdahl_alpha``, ``fit_lambda_io``; scipy, the ``repro[fit]``
extra) are imported on first use, so simulating loads neither.
"""

from repro import _lazy_getattr
from repro.model.equations import (
    amdahl_speedup,
    amdahl_time,
    io_fraction_from_times,
    observed_time,
    sequential_compute_time,
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

#: Names resolved lazily (PEP 562): ``repro.model.metrics`` imports
#: numpy and ``repro.model.fitting`` imports scipy, neither of which a
#: simulation needs.
__getattr__ = _lazy_getattr(
    globals(),
    {
        "mean_relative_error": "repro.model.metrics",
        "per_point_relative_error": "repro.model.metrics",
        "trend_agreement": "repro.model.metrics",
        "FitResult": "repro.model.fitting",
        "fit_amdahl_alpha": "repro.model.fitting",
        "fit_lambda_io": "repro.model.fitting",
    },
)
