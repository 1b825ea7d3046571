"""Calibration fitting: recover model parameters from measured runs.

The paper instantiates its model from one observation per task plus a
published λ_io.  When a *scaling curve* ``{(p, T(p))}`` is available
(e.g. Figure 6's core sweep), the general model (Eq. 3) can be fitted
instead — these helpers do that with non-linear least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

try:
    from scipy.optimize import least_squares
except ImportError as exc:
    raise ImportError(
        "repro.model.fitting needs scipy; install the fit extra: "
        "pip install 'repro[fit]'"
    ) from exc

from repro.model.equations import observed_time


@dataclass(frozen=True)
class FitResult:
    """Outcome of a calibration fit."""

    tc1: float          # fitted sequential compute time, seconds
    alpha: float        # fitted Amdahl fraction
    lambda_io: float    # λ_io used or fitted
    residual: float     # RMS relative residual of the fit

    def predict(self, p: int) -> float:
        """Predicted observed time on ``p`` cores."""
        return observed_time(self.tc1, p, self.lambda_io, self.alpha)


def fit_amdahl_alpha(
    cores: Sequence[int],
    times: Sequence[float],
    lambda_io: float,
) -> FitResult:
    """Fit (T_c(1), α) to an observed scaling curve at fixed λ_io.

    Minimizes relative residuals so small-p and large-p points weigh
    equally.  Requires at least two distinct core counts.
    """
    p = np.asarray(cores, dtype=float)
    t = np.asarray(times, dtype=float)
    if p.shape != t.shape or p.size < 2:
        raise ValueError("need at least two (cores, time) observations")
    if np.any(p <= 0) or np.any(t <= 0):
        raise ValueError("cores and times must be positive")
    if len(set(p.tolist())) < 2:
        raise ValueError("need at least two distinct core counts")
    if not (0.0 <= lambda_io < 1.0):
        raise ValueError("lambda_io must be in [0, 1)")

    def residuals(theta: np.ndarray) -> np.ndarray:
        tc1, alpha = theta
        predicted = (alpha + (1.0 - alpha) / p) * tc1 / (1.0 - lambda_io)
        return (predicted - t) / t

    # Initial guess: perfect speedup from the largest-p observation.
    i = int(np.argmax(p))
    tc1_guess = float(p[i] * (1.0 - lambda_io) * t[i])
    solution = least_squares(
        residuals,
        x0=[tc1_guess, 0.1],
        bounds=([1e-12, 0.0], [np.inf, 1.0]),
    )
    tc1, alpha = solution.x
    rms = float(np.sqrt(np.mean(solution.fun**2)))
    return FitResult(tc1=float(tc1), alpha=float(alpha), lambda_io=lambda_io, residual=rms)


def fit_lambda_io(
    total_times: Sequence[float], compute_times: Sequence[float]
) -> float:
    """Estimate λ_io as the mean observed I/O fraction over repeated runs."""
    total = np.asarray(total_times, dtype=float)
    compute = np.asarray(compute_times, dtype=float)
    if total.shape != compute.shape or total.size == 0:
        raise ValueError("need matching, non-empty time arrays")
    if np.any(total <= 0) or np.any(compute < 0) or np.any(compute > total):
        raise ValueError("times must satisfy 0 <= compute <= total, total > 0")
    return float(np.mean(1.0 - compute / total))
