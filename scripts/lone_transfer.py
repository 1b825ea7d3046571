#!/usr/bin/env python3
"""Micro benchmark: the CPU cost of one transfer alone on its links.

    PYTHONPATH=src python3 scripts/lone_transfer.py [N] [REPEATS]

One DES process on a bare :class:`~repro.network.FlowNetwork` moves N
(default 20,000) transfers back to back over a two-link route, so each
one is the only flow in flight; a second process does N ``Timeout``s of
the same lengths as the floor.  Prints the best of REPEATS (default 5)
runs as microseconds of process CPU time per transfer and per timeout.
This is a diagnostic, not a headline number: chain-10k in
``benchmarks/e2e`` is the end-to-end measure of the same path.
"""

from __future__ import annotations

import sys
import time

from repro import des
from repro.network import FlowNetwork, Link


def _transfers(n: int) -> float:
    env = des.Environment()
    net = FlowNetwork(env)
    route = (Link("nic", bandwidth=1e9), Link("disk", bandwidth=5e8))

    def chain():
        for _ in range(n):
            yield net.transfer(1e6, route)

    env.process(chain())
    start = time.process_time()
    env.run()
    return time.process_time() - start


def _timeouts(n: int) -> float:
    env = des.Environment()

    def chain():
        for _ in range(n):
            yield env.timeout(1e6 / 5e8)

    env.process(chain())
    start = time.process_time()
    env.run()
    return time.process_time() - start


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 20_000
    repeats = int(argv[1]) if len(argv) > 1 else 5
    transfer = min(_transfers(n) for _ in range(repeats))
    timeout = min(_timeouts(n) for _ in range(repeats))
    sys.stdout.write(
        f"lone transfer {transfer / n * 1e6:.2f} us   "
        f"timeout {timeout / n * 1e6:.2f} us   (n={n}, best of {repeats})\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
