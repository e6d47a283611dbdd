"""Replica-parallel map over a worker pool, order-preserving.

NBBM_THREADS, a positive integer, caps the pool; results are identical
to the serial run because every task carries its own seed and ordering is
preserved.
"""

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count(n_tasks: int) -> int:
    env = os.environ.get("NBBM_THREADS")
    try:
        workers = int(env) if env else min(4, os.cpu_count() or 1)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"NBBM_THREADS={env!r} is not a positive integer")
    return max(1, min(workers, n_tasks))


def map_ordered(fn, args_list):
    args_list = list(args_list)
    workers = worker_count(len(args_list))
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args_list))
    except (OSError, PermissionError):  # restricted environments: run serial
        return [fn(a) for a in args_list]
