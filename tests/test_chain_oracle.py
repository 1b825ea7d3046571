"""A closed-form oracle for chains, independent of the event loop.

In a chain only one flow (or one file's set of stripes) is in flight at a
time, so every per-task time has a closed form in the route's link
capacities and latencies and in Eqs. 3/4:

* a stage starts when its parent ends (its cores are free);
* it reads its input alone: the route latency plus size over the
  route's one-flow bottleneck.  A striped file is ``k`` equal chunks, one
  per BB node, that share the compute node's uplink, so each chunk moves
  at ``min(uplink / k, disk)``;
* it computes for ``T_c(p) = (1 - lambda_io) T(p)``, where its flops were
  derived from an observed time ``T(p)`` with Eq. 3 (Eq. 4 when
  ``alpha = 0``);
* it writes its output alone, the same way.

``simulate()`` must give every task's ``(start, end)`` at 1e-9 relative.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.model.equations import sequential_compute_time
from repro.platform.presets import TABLE_I, cori_spec
from repro.workflow.model import File, Task, Workflow

CORI = TABLE_I["cori"]
REL_TOL = 1e-9


def with_uplink_latency(spec, bb_latency: float, pfs_latency: float):
    """``spec`` with every compute node's BB and PFS uplinks given a latency."""
    def relinked(link):
        if link.name.endswith("-bbnet"):
            return dataclasses.replace(link, latency=bb_latency)
        if link.name.endswith("-pfsnet"):
            return dataclasses.replace(link, latency=pfs_latency)
        return link

    return dataclasses.replace(spec, links=tuple(relinked(l) for l in spec.links))


def transfer_time(size: float, mode: str, n_bb: int, bb_latency: float,
                  pfs_latency: float) -> float:
    """One file read or written alone by a compute node (symmetric links)."""
    if mode == "pfs":
        rate = min(CORI["pfs_disk_bandwidth"], CORI["pfs_network_bandwidth"])
        return pfs_latency + size / rate
    if mode == "private":
        rate = min(CORI["bb_disk_bandwidth"], CORI["bb_network_bandwidth"])
        return bb_latency + size / rate
    chunk_rate = min(CORI["bb_network_bandwidth"] / n_bb, CORI["bb_disk_bandwidth"])
    return bb_latency + (size / n_bb) / chunk_rate


def oracle_schedule(stages, sizes, mode, n_bb, bb_latency, pfs_latency):
    """``{task: (start, end)}`` for the chain, in closed form."""
    schedule = {}
    clock = 0.0
    for i, (observed, lambda_io, _cores, _alpha) in enumerate(stages):
        read = transfer_time(sizes[i], mode, n_bb, bb_latency, pfs_latency)
        compute = (1.0 - lambda_io) * observed
        write = transfer_time(sizes[i + 1], mode, n_bb, bb_latency, pfs_latency)
        end = clock + read + compute + write
        schedule[f"stage_{i}"] = (clock, end)
        clock = end
    return schedule


def build_chain(stages, sizes, use_alpha: bool) -> Workflow:
    """Stage ``i`` reads ``sizes[i]`` bytes and writes ``sizes[i + 1]``."""
    tasks = []
    previous = File("chain/input", sizes[0])
    for i, (observed, lambda_io, cores, alpha) in enumerate(stages):
        alpha = alpha if use_alpha else 0.0
        tc1 = sequential_compute_time(observed, cores, lambda_io, alpha)
        output = File(f"chain/stage_{i}", sizes[i + 1])
        tasks.append(
            Task(f"stage_{i}", flops=tc1 * CORI["core_speed"], inputs=(previous,),
                 outputs=(output,), cores=cores, alpha=alpha)
        )
        previous = output
    return Workflow("chain", tasks)


stage = st.tuples(
    st.floats(0.1, 100.0),          # observed T(p), s
    st.floats(0.0, 0.9),            # lambda_io
    st.integers(1, 32),             # cores (a Cori node has 32)
    st.floats(0.0, 0.5),            # Amdahl alpha
)
latency = st.one_of(st.just(0.0), st.floats(1e-6, 1e-2))


@settings(max_examples=60, deadline=None)
@given(
    stages=st.lists(stage, min_size=1, max_size=5),
    data=st.data(),
    mode=st.sampled_from(["private", "striped", "pfs"]),
    n_bb=st.integers(1, 4),
    n_compute=st.integers(1, 3),
    use_alpha=st.booleans(),
    bb_latency=latency,
    pfs_latency=latency,
)
def test_chain_schedule_matches_closed_form(
    stages, data, mode, n_bb, n_compute, use_alpha, bb_latency, pfs_latency
):
    sizes = data.draw(
        st.lists(st.floats(1e3, 1e10), min_size=len(stages) + 1,
                 max_size=len(stages) + 1)
    )
    if mode == "private":
        # A private allocation serves only its owner: keep every stage on it.
        n_compute = 1
    spec = with_uplink_latency(
        cori_spec(n_compute=n_compute, n_bb_nodes=n_bb), bb_latency, pfs_latency
    )
    fraction = 0.0 if mode == "pfs" else 1.0
    config = repro.Config(
        bb_mode="private" if mode == "private" else "striped",
        input_fraction=fraction,
        intermediate_fraction=fraction,
        output_fraction=fraction,
        use_amdahl_alpha=use_alpha,
    )
    trace = repro.simulate(spec, build_chain(stages, sizes, use_alpha), config=config).trace

    want = oracle_schedule(stages, sizes, mode, n_bb, bb_latency, pfs_latency)
    scale = max(end for _, end in want.values())
    assert sorted(trace.records) == sorted(want)
    for name, (start, end) in want.items():
        record = trace.records[name]
        for got, expected in ((record.start, start), (record.end, end)):
            assert math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=REL_TOL * scale), (
                name, got, expected
            )
