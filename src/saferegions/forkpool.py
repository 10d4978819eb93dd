"""Independent tasks mapped over a pool of forked processes.

A forked worker inherits the caller's job (arrays, settings, trained state)
without a copy; only the tasks and their results cross the pipes, in task
order.  Forking is safe only in a process running no other Python thread,
since a lock one of them held would stay locked in the children, so
``fork_cpus`` reads 1 in such a process, in a daemonic ``multiprocessing``
worker (which may not start processes of its own), and wherever ``fork``
or CPU affinity is missing.  The callers add their own size rules.
"""

from __future__ import annotations

import os
import sys
import threading

_JOB = None   # a worker's (function, job), set in the worker alone


def fork_cpus() -> int:
    """How many CPUs a fork pool may use here; 1 means stay in-process."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    # a process that never imported multiprocessing is none of its workers
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _adopt(fn, job) -> None:
    global _JOB
    _JOB = fn, job


def _run_adopted(task):
    fn, job = _JOB
    return fn(job, task)


def fork_map(fn, job, tasks, workers: int) -> list:
    """``[fn(job, task) for task in tasks]``, computed by ``workers`` forked
    processes and returned in task order; an error raised by ``fn``
    propagates.  The pool is shut down, and its processes have exited, on
    every path out."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(fn, job))
    try:
        return list(pool.map(_run_adopted, tasks))
    finally:
        # drops the tasks not started yet when one raised, then waits for
        # the running ones and the workers' exit
        pool.shutdown(cancel_futures=True)
