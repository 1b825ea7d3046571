"""High-fidelity platform emulation — the "real machine" stand-in.

The paper's methodology is: *measure* SWarp on Cori/Summit, *calibrate*
a deliberately simple simulator from those measurements, then *quantify*
the simple model's error.  We have no Cori or Summit, so this package
provides the measured side: an emulator built on the same DES core but
with the effects the paper's simple model deliberately omits —

* per-file metadata latency (DataWarp namespace operations; dominant for
  small files, catastrophic in striped mode);
* POSIX single-stream bandwidth caps ("the effective bandwidth achieved
  by this workflow implementation is well below the peak");
* concurrency penalties on the BB fabric (sharing interference);
* sub-linear task scaling (true Amdahl alphas + beyond-8-cores
  degradation) and memory-bandwidth compute interference;
* seeded stochastic run-to-run interference (striped ≈ 15% spread,
  on-node nearly stable — Figure 8);
* the reproducible striped-mode anomaly around 75% staged input
  (Figure 4), which the paper could not explain and the simple model
  does not capture.

Every constant lives in :mod:`repro.emulation.calibration`, annotated
with the paper observation it encodes; :func:`emulate` is the one place
they reach a run.  It and the trial runner (:mod:`repro.emulation.trials`,
numpy) are imported on first use.
"""

from repro import _lazy_getattr
from repro.emulation.calibration import (
    EmulatedTaskTruth,
    EmulationEffects,
    CORI_EFFECTS,
    SUMMIT_EFFECTS,
    SWARP_TRUTH,
    effects_for,
)
from repro.emulation.compute import EmulatedComputeService

__all__ = [
    "CORI_EFFECTS",
    "EmulatedComputeService",
    "EmulatedTaskTruth",
    "EmulationEffects",
    "SUMMIT_EFFECTS",
    "SWARP_TRUTH",
    "TrialStats",
    "effects_for",
    "emulate",
    "run_trials",
]


#: Names resolved lazily (PEP 562): ``repro.emulation.trials`` imports
#: numpy, which a run without seeded interference never needs, and
#: ``machine`` imports the run path.
__getattr__ = _lazy_getattr(
    globals(),
    {
        "TrialStats": "repro.emulation.trials",
        "emulate": "repro.emulation.machine",
        "run_trials": "repro.emulation.trials",
    },
)
