"""SIM100: wall-clock reads and global-RNG draws reaching the event heap.

The sources come from the catalog SIM001/SIM002 use, so every call
those rules flag is also followed to DES-visible sinks.
"""

import heapq
import time
from datetime import datetime

import numpy as np


def push_wall_clock(queue, task):
    heapq.heappush(queue, (time.time(), task))  # expect[SIM100]


def push_monotonic_ns(queue, task):
    stamp = time.monotonic_ns()
    heapq.heappush(queue, (stamp, task))  # expect[SIM100]


def push_datetime(queue, task):
    heapq.heappush(queue, (datetime.now(), task))  # expect[SIM100]


def push_numpy_global_rng(queue, task):
    heapq.heappush(queue, (np.random.rand(), task))  # expect[SIM100]
