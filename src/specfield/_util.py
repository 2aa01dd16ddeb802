"""Chunks, batches and forked workers of the replication loop behind the Monte Carlo reports.

A chunk is the unit of scheduling: each report hands all its chunks to one
``run_chunked`` call, so it forks at most once.  A batch is the unit of
memory: a worker draws, filters and sums a chunk about ``_BATCH_BYTES`` at a
time, in one workspace it keeps for the whole call.
"""

from __future__ import annotations

import itertools
import os

# refuse a replication, a quadrature grid or a block list needing more than this
_CHUNK_BYTES = 1 << 26
# draw, filter and sum the replications of a chunk about this many bytes at a time
_BATCH_BYTES = 1 << 22
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


def check_replication(sites: int, bytes_per_site: int) -> None:
    """Refuse a box whose one replication needs more than ``_CHUNK_BYTES``."""
    need = sites * bytes_per_site
    if need > _CHUNK_BYTES:
        raise ValueError(f"one replication of the {sites}-site box needs {need}"
                         f" bytes, over the {_CHUNK_BYTES}-byte chunk budget; boxes of up to "
                         f"{_CHUNK_BYTES // bytes_per_site} sites fit")


def replication_batch(replication_bytes: int) -> int:
    """Replications a batch holds: max(1, ``_BATCH_BYTES`` // the bytes of one)."""
    return max(1, _BATCH_BYTES // replication_bytes)


def replication_chunks(total: int) -> list[tuple[int, int]]:
    """range(total) in order as min(total, ``worker_count()``) (start, stop) chunks
    whose sizes differ by at most one: chunks schedule work, batches bound memory."""
    parts = min(total, worker_count())
    return [(total * i // parts, total * (i + 1) // parts) for i in range(parts)]


def _run(token, *chunk):
    return _TASKS[token](*chunk)


def run_chunked(chunks, task) -> list:
    """``[task(*chunk) for chunk in chunks]``, in up to ``worker_count()`` forked
    processes but no more than the chunks (in this process where ``fork`` is
    missing); results come back in chunk order.  The workers live for this call
    only and inherit the task: only the token, the chunks and the results are
    pickled."""
    workers = min(worker_count(), len(chunks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [task(*chunk) for chunk in chunks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    token = next(_TOKENS)
    _TASKS[token] = task
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run, [token] * len(chunks), *zip(*chunks)))
    finally:
        del _TASKS[token]
