"""SIM100-clean counterparts of clock_bad.py: simulated time and
explicitly seeded generators are reproducible."""

import heapq
import random

import numpy as np


def push_simulated_time(env, queue, task):
    heapq.heappush(queue, (env.now, task))


def push_seeded_numpy(queue, task, seed):
    rng = np.random.default_rng(seed)
    heapq.heappush(queue, (rng.random(), task))


def push_seeded_stdlib(queue, task, seed):
    rng = random.Random(seed)
    heapq.heappush(queue, (rng.random(), task))
