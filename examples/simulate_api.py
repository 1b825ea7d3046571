#!/usr/bin/env python3
"""The one-call public API: ``repro.simulate``.

Runs SWarp on the Cori model through the facade three ways — default
config, a config mapping (no imports of enums or dataclasses needed),
and an A/B of two bandwidth-sharing disciplines — then exports
telemetry.

Run:  python examples/simulate_api.py
"""

import tempfile

import repro
from repro.platform.presets import cori_spec
from repro.workflow.swarp import make_swarp


def main() -> None:
    platform = cori_spec(n_compute=2, n_bb_nodes=2)
    workflow = make_swarp(n_pipelines=4, cores_per_task=8)

    # Defaults: striped shared burst buffer, everything staged in.
    result = repro.simulate(platform, workflow)
    print(f"striped (defaults):        makespan {result.makespan:7.2f}s  "
          f"{len(result.trace.records)} tasks")

    # Any repro.Config field can be given as a plain mapping; string
    # forms are accepted ("private" instead of BBMode.PRIVATE).
    result = repro.simulate(platform, workflow,
                            config={"bb_mode": "private",
                                    "input_fraction": 0.5})
    print(f"private, 50% staged:       makespan {result.makespan:7.2f}s")

    # Sharing A/B: the paper's max-min fair sharing against the
    # equal-split ablation, which does not pass the capacity a flow
    # limited elsewhere leaves on a link to that link's other flows.
    # For this SWarp run the two agree.  observer=True collects the
    # telemetry that counts the rate solves.
    for allocator in ("max-min", "equal-split"):
        result = repro.simulate(platform, workflow, observer=True,
                                config={"bb_mode": "private",
                                        "input_fraction": 0.5,
                                        "network_allocator": allocator})
        solves = result.telemetry.counter("network.solver_calls").value
        print(f"{allocator:11s} allocator:     makespan {result.makespan:7.2f}s  "
              f"{solves:4.0f} rate solves")

    with tempfile.TemporaryDirectory() as out:
        manifest = result.export_telemetry(out)
        print(f"telemetry exported: {manifest}")


if __name__ == "__main__":
    main()
