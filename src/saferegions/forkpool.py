"""How independent tasks run: in this process, or mapped over forked ones.

A forked worker inherits the caller's job (arrays, settings, trained state)
without a copy; only the tasks and their results cross the pipes, in task
order.  Forking is safe only in a process running no other Python thread,
since a lock one of them held would stay locked in the children, so
``fork_cpus`` reads 1 in such a process, in a daemonic ``multiprocessing``
worker (which may not start processes of its own), and wherever ``fork``
or CPU affinity is missing.  The callers add their own size rules.

The BLAS thread rule sits here too: ``_openblas_threads`` is the one scan of
the loaded BLAS libraries, read by the pin the package runs at import
(``_pin_blas_threads``) and by the pool's live gate (``_blas_single_threaded``).
"""

from __future__ import annotations

import os
import re
import sys
import threading

_JOB = None   # a worker's (function, job), set in the worker alone

# The thread-count getters of OpenBLAS builds, each beside its "_set_" twin;
# numpy's and scipy's wheels bundle builds with the ``scipy_`` prefix.
_BLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


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
    """``[fn(job, task) for task in tasks]``: in this process when
    ``workers < 2``, else over ``workers`` forked processes, in task order
    either way; an error raised by ``fn`` propagates.  A pool is shut down,
    and its processes have exited, on every path out."""
    if workers < 2:
        return [fn(job, task) for task in tasks]
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


def _blas_single_threaded() -> bool:
    """Whether every BLAS library this process has loaded is an OpenBLAS
    that reports one thread; pool workers running more BLAS threads each
    would oversubscribe the CPUs.  A caller may raise the count the import
    pinned, so this asks on every call.  Any other BLAS cannot be asked, and
    neither can a process without ``/proc/self/maps``: both read as unknown."""
    threads = _openblas_threads()
    return threads is not None and all(getter() == 1 for getter, _ in threads)


def _pin_blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread, for the whole process; sets
    nothing where ``_openblas_threads`` reads unknown."""
    for _, setter in _openblas_threads() or ():
        setter(1)


def _openblas_threads() -> list | None:
    """The (getter, setter) thread-count functions of each BLAS library this
    process has loaded; None (unknown) when one of them is not an OpenBLAS
    that exports both, when none is found, or without ``/proc/self/maps``."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            rows = [line.split(maxsplit=5) for line in maps.read().splitlines()]
    except OSError:
        return None
    # the mapped files' paths; the f2py modules (scipy's _fblas) do not match
    libraries = {row[5] for row in rows
                 if len(row) == 6 and re.match(r"lib\w*(blas|blis|mkl)", os.path.basename(row[5]))}
    threads = []
    for path in libraries:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            return None
        name = next((name for name in _BLAS_THREAD_GETTERS if hasattr(library, name)), None)
        setter = name and getattr(library, name.replace("_get_", "_set_"), None)
        if setter is None:
            return None
        # ctypes calls both with, and reads back, a C int
        threads.append((getattr(library, name), setter))
    return threads or None
