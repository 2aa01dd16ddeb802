"""Batches and forked workers of the replication loop behind the Monte Carlo reports.

A batch is the one unit of work: each report hands all its batches to one
``run_chunked`` call, so it forks at most once, and the pool hands each free
worker the next batch, to draw, filter and sum in one workspace it keeps for
the whole call.  ``stats._entry`` sizes batches to ``_BATCH_BYTES`` and refuses
a replication over ``_CHUNK_BYTES``.  ``InternalConsistencyError`` lives here
too, so the command line can catch it before any numpy-backed module loads.
"""

from __future__ import annotations

import os

# refuse a replication, a quadrature grid or a block list needing more than this
_CHUNK_BYTES = 1 << 26
# draw, filter and sum about this many bytes of replications a batch
_BATCH_BYTES = 1 << 22
# in a forked worker, the task of the run_chunked call that forked it
_task = None


class InternalConsistencyError(Exception):
    """A quantity that must be real/nonnegative by theory failed to be, beyond roundoff."""


def worker_count() -> int:
    """The pool's one sizing: SPECFIELD_THREADS (>=1, default 1) capped by the usable CPUs."""
    raw = os.environ.get("SPECFIELD_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"SPECFIELD_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"SPECFIELD_THREADS must be >= 1, got {n}")
    return min(n, usable_cpus())


def _adopt(task) -> None:
    global _task
    _task = task


def _run(*chunk):
    return _task(*chunk)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_chunked(chunks, task) -> list:
    """``[task(*chunk) for chunk in chunks]``, in min(``worker_count()``, chunks)
    forked processes (in this process where ``fork`` is missing); results come
    back in chunk order.  The workers live for this call only and get the task
    from the pool's initializer, which fork hands over unpickled: only the
    chunks and the results are pickled."""
    workers = min(worker_count(), len(chunks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [task(*chunk) for chunk in chunks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(task,)) as pool:
        return list(pool.map(_run, *zip(*chunks)))
