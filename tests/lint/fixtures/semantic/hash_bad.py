"""SIM100: a salted ``hash()`` reaching the event heap.

``str`` hashes change with ``PYTHONHASHSEED``, so ordering or placing
work by them differs from one interpreter to the next.
"""

import heapq
import zlib


def push_by_name_hash(queue, task):
    heapq.heappush(queue, (hash(task.name), task))  # expect[SIM100]


def push_by_bucket(queue, task, n_buckets):
    bucket = hash(task.owner) % n_buckets
    heapq.heappush(queue, (bucket, task))  # expect[SIM100]


def push_to_owner_node(queue, nodes, task):
    node = nodes[hash(task.owner) % len(nodes)]
    heapq.heappush(queue, (node, task))  # expect[SIM100]


def push_by_checksum(queue, task):
    # A checksum is the same in every interpreter: not a source.
    heapq.heappush(queue, (zlib.adler32(task.name.encode()), task))
