"""Chunking and threading of the replication loop behind the Monte Carlo reports."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# keep one chunk of replications around this many bytes of workspace
_CHUNK_BYTES = 1 << 26


def worker_count() -> int:
    """Worker threads for replication batches; SPECFIELD_THREADS overrides (>=1)."""
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


def run_chunked(chunks, task) -> list:
    """``[task(lo, hi) for lo, hi in chunks]``, threaded when configured; the
    results come back in chunk order at any worker count."""
    workers = worker_count()
    if workers == 1 or len(chunks) <= 1:
        return [task(lo, hi) for lo, hi in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, *zip(*chunks)))
