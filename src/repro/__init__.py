"""workflow-io-bb: simulating scientific workflows on HPC platforms with burst buffers.

Reproduction of Pottier, Ferreira da Silva, Casanova, Deelman —
"Modeling the Performance of Scientific Workflow Executions on HPC
Platforms with Burst Buffers" (IEEE CLUSTER 2020).

Layering (bottom up):

* :mod:`repro.des` — discrete-event simulation kernel;
* :mod:`repro.network` — flow-level max-min fair bandwidth sharing;
* :mod:`repro.platform` — platform specs, Table I presets, JSON I/O;
* :mod:`repro.storage` — PFS, shared (private/striped) and on-node BBs;
* :mod:`repro.compute` — gang core allocation, Amdahl task timing;
* :mod:`repro.workflow` — DAGs, SWarp & 1000Genomes generators, WfCommons I/O;
* :mod:`repro.wms` — the workflow engine and placement policies;
* :mod:`repro.model` — the paper's Eqs. (1)–(4), fitting, metrics;
* :mod:`repro.traces` — event traces, Gantt rendering, bandwidth accounting;
* :mod:`repro.profile` — critical-path profiling and makespan attribution;
* :mod:`repro.emulation` — the "real machine" stand-in for validation;
* :mod:`repro.scenarios` — one-call builders for the paper's scenarios;
* :mod:`repro.simulator` — WRENCH-style files-in/trace-out facade;
* :mod:`repro.experiments` — regeneration of every table and figure;
* :mod:`repro.analysis` — speedups, plateaus, crossovers, summaries.

The quickest entry point is the top-level facade::

    import repro

    result = repro.simulate("platform.json", "workflow.json")
    print(result.makespan)

with :func:`repro.scenarios.run_swarp` / ``run_genomes`` for the paper's
prebuilt scenarios.
"""

import importlib

__version__ = "1.0.0"


def _lazy_getattr(namespace: dict, where: dict[str, str]):
    """A PEP 562 module ``__getattr__`` over ``where`` (name -> module).

    The name resolves to the attribute of that name in its module,
    imported on first access, and is then cached in ``namespace`` (the
    package's ``globals()``) so later lookups skip the hook.  Packages
    use it to keep heavy submodules (numpy, scipy, exporters) out of a
    plain simulation's imports.
    """

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__


#: Public names re-exported lazily (keeps ``import repro`` light: the
#: facade pulls in the simulator's layers only when first touched).
_API = {
    "simulate": "repro.api",
    "Result": "repro.api",
    "Config": "repro.config",
    "BBMode": "repro.storage",
    "build_profile": "repro.profile",
    "diff_profiles": "repro.profile",
}

__all__ = [
    *sorted(_API),
    "analysis",
    "compute",
    "des",
    "emulation",
    "experiments",
    "model",
    "network",
    "platform",
    "profile",
    "scenarios",
    "simulator",
    "storage",
    "traces",
    "wms",
    "workflow",
]

__getattr__ = _lazy_getattr(globals(), _API)
