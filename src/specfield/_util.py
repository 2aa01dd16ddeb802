"""Chunking and forked workers of the replication loop behind the Monte Carlo reports."""

from __future__ import annotations

import itertools
import os

# keep one chunk of replications around this many bytes of workspace
_CHUNK_BYTES = 1 << 26
# the tasks of the run_chunked calls in flight, by token; forked workers inherit them
_TASKS, _TOKENS = {}, itertools.count()


def worker_count() -> int:
    """Forked replication worker processes: SPECFIELD_THREADS (>=1), serial without fork."""
    raw = os.environ.get("SPECFIELD_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"SPECFIELD_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"SPECFIELD_THREADS must be >= 1, got {n}")
    return n


def replication_chunks(total: int, sites: int, bytes_per_site: int) -> list[tuple[int, int]]:
    """(start, stop) chunks of range(total) in the memory budget; one replication must fit."""
    per = _CHUNK_BYTES // (sites * bytes_per_site)
    if per < 1:
        raise ValueError(f"one replication of the {sites}-site box needs {sites * bytes_per_site}"
                         f" bytes, over the {_CHUNK_BYTES}-byte chunk budget; boxes of up to "
                         f"{_CHUNK_BYTES // bytes_per_site} sites fit")
    return [(lo, min(lo + per, total)) for lo in range(0, total, per)]


def _run(token, lo, hi):
    return _TASKS[token](lo, hi)


def run_chunked(chunks, task) -> list:
    """``[task(lo, hi) for lo, hi in chunks]``, in up to ``worker_count()`` forked
    processes but no more than the chunks (in this process where ``fork`` is
    missing); results come back in chunk order.  Workers inherit the task: only
    ``(token, lo, hi)`` and the results are pickled."""
    workers = min(worker_count(), len(chunks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [task(lo, hi) for lo, hi in chunks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    token = next(_TOKENS)
    _TASKS[token] = task
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run, [token] * len(chunks), *zip(*chunks)))
    finally:
        del _TASKS[token]
