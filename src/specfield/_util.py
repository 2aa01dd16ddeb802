"""Batches and forked workers of the replication loop behind the Monte Carlo reports.

A batch is the one unit of work: each report hands all its batches to one
``run_chunked`` call, so it forks at most once.  Each free worker takes the
next batch's index off one shared counter, draws, filters and sums it in one
workspace it keeps for the whole call, and sends all its sums to the caller
in one message at the end.  ``stats._batch_rows`` sizes every entry's batches
to ``_BATCH_BYTES`` and refuses a replication over ``_CHUNK_BYTES``.
``InternalConsistencyError`` lives here too, so the command line can catch it
before any numpy-backed module loads.
"""

from __future__ import annotations

import os

# refuse a replication, a quadrature grid or a block list needing more than this
_CHUNK_BYTES = 1 << 26
# draw, filter and sum about this many bytes of replications a batch
_BATCH_BYTES = 1 << 22


class InternalConsistencyError(Exception):
    """A quantity that must be real/nonnegative by theory failed to be, beyond roundoff."""


def worker_count() -> int:
    """The pool's one sizing: SPECFIELD_THREADS (>=1, default 1) capped by the usable CPUs."""
    raw = os.environ.get("SPECFIELD_THREADS")
    if raw is None:
        return 1
    # ASCII digits only: int() also reads "1_0", " 2" and the digits of other scripts
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"SPECFIELD_THREADS must be a decimal integer >= 1, got {raw!r}")
    return min(int(raw), usable_cpus())


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_chunked(chunks, task) -> list:
    """``[task(*chunk) for chunk in chunks]``, in min(``worker_count()``, chunks)
    forked processes (in this process where ``fork`` is missing); results come
    back in chunk order.  The workers live for this call only and get the
    chunks and the task through fork, unpickled; each sends its results, or
    its error and traceback, in one message, and this process starts no
    thread."""
    workers = min(worker_count(), len(chunks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [task(*chunk) for chunk in chunks]
    import multiprocessing
    from multiprocessing.connection import wait
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    pending, results = {}, {}
    try:
        for _ in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_work, args=(chunks, task, counter, writer),
                                  daemon=True)
            process.start()
            writer.close()
            pending[reader] = process
        while pending:
            for reader in wait(list(pending)):
                with reader:
                    try:
                        message = reader.recv()
                    except (EOFError, OSError):  # the worker died before its message was whole
                        message = None
                process = pending.pop(reader)
                process.join()
                if message is None:
                    raise RuntimeError(f"a replication worker exited with code "
                                       f"{process.exitcode} before it sent its results")
                if isinstance(message, tuple):  # a worker's error and its traceback
                    error, trace = message
                    raise error from RuntimeError(f"in a replication worker:\n{trace}")
                results.update(message)
    finally:
        for reader, process in pending.items():
            process.kill()  # it may be blocked sending results no one reads
            process.join()
            reader.close()
    return [results[index] for index in range(len(chunks))]


def _work(chunks, task, counter, writer) -> None:
    """A forked worker: take the next chunk's index off the shared counter,
    until none is left, then send ``{index: result}``, or the first error, in
    one message.  Every exception, an interrupt included, goes to the caller
    to raise, with the worker's formatted traceback as its cause, and moves
    the counter past the last chunk, so no worker takes another.  The worker
    leaves by ``os._exit``, so no exception reaches multiprocessing's
    bootstrap, which would print its traceback."""
    try:
        results = {}
        while True:
            with counter.get_lock():
                index = counter.value
                counter.value = index + 1
            if index >= len(chunks):
                break
            results[index] = task(*chunks[index])
        writer.send(results)
    except BaseException as exc:
        import traceback
        from multiprocessing.reduction import ForkingPickler
        with counter.get_lock():
            counter.value = len(chunks)
        # the caller's copy has no frames of its own, so its traceback goes too,
        # as the cause: a note (``add_note``) would be shown as part of the message
        trace = "".join(traceback.format_exception(exc))
        try:  # an error that does not pickle, or not back, goes as its type and message
            ForkingPickler.loads(ForkingPickler.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        writer.send((exc, trace))
    finally:
        os._exit(0)
