"""One lazily started pool of worker threads for independent numpy work.

numpy releases the interpreter lock in its ufunc loops and BLAS calls, so
tasks made mostly of such calls run in parallel. Callers hand over only tasks
that compute their results with the same code whichever thread runs them, so
no result depends on the worker count. With more than one worker, the pool
is created, and `concurrent.futures` imported, by the first `run` of more
than one task or the first `start`; a process that never has such work
starts no thread.
"""

import os
import threading

__all__ = ["MAX_WORKERS", "count", "run", "start"]

# Threads in the pool at most, whatever the CPU count. Every task holds its
# own scratch (a sampler task about 2.3 MB), so this bounds the scratch live
# at once: with as many workers as CPUs, drawing a 16 MB corpus on 8 CPUs
# peaked at 1.83 times the corpus and its ids, against 1.15 on 2 workers.
MAX_WORKERS = 2

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    """A forked child inherits the pool but none of its threads, and maybe a
    held lock: it starts its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def count():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers():
    return min(count(), MAX_WORKERS)


def _started_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_workers(), thread_name_prefix="bsplda-worker")
    return _pool


def run(tasks):
    """Call every task once and return the results in task order.

    With more than one task and more than one CPU the tasks run on the pool
    of min(count(), MAX_WORKERS) threads, and every task has finished when
    `run` returns or raises the first task's exception. A task must not call
    `run`: it would wait on the pool it occupies.
    """
    tasks = list(tasks)
    if len(tasks) < 2 or _workers() < 2:
        return [task() for task in tasks]
    pool = _started_pool()
    futures = [pool.submit(task) for task in tasks]
    for future in futures:
        future.exception()  # waits; a failed task does not leave others running
    return [future.result() for future in futures]


def start(task):
    """Start `task` and return a function that waits for its result and returns
    it, or raises its exception.

    With more than one CPU the task runs on the pool while the caller goes on;
    with one it runs now, on the calling thread, and raises now. The caller
    keeps what the task reads unchanged until it has the result.
    """
    if _workers() < 2:
        result = task()
        return lambda: result
    return _started_pool().submit(task).result
