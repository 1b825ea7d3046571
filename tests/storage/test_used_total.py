"""``StorageService.used`` keeps a running total instead of re-summing.

Stores only append to the content table, so adding each new size
continues the same left-to-right sum.  Over random add/write sequences
the value must be exactly the left-to-right sum of the stored sizes —
which on Python <= 3.11 is exactly the ``sum(...)`` the property used
to compute (3.12 made ``sum`` of floats compensate its rounding).
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import des
from repro.platform import Platform
from repro.platform.presets import cori_spec
from repro.storage import ParallelFileSystem
from repro.workflow import File

NAMES = [f"f{i}" for i in range(8)]


def _left_to_right(sizes) -> float:
    total = 0
    for size in sizes:
        total += size
    return total


operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "write"]),
        st.sampled_from(NAMES),
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
        | st.integers(min_value=0, max_value=10**9),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_used_equals_the_resum_after_every_operation(ops):
    env = des.Environment()
    pfs = ParallelFileSystem(Platform(env, cori_spec(n_compute=1)))
    for op, name, size in ops:
        file = File(name, size)
        if op == "add":
            pfs.add_file(file)
        else:
            pfs.write(file, "cn0")
        sizes = [f.size for f in pfs._contents.values()]
        assert pfs.used == _left_to_right(sizes)
        if sys.version_info < (3, 12):
            assert pfs.used == sum(f.size for f in pfs._contents.values())
        assert pfs.free_space == pfs.capacity - pfs.used
