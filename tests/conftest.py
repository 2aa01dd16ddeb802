"""Run the suite from a checkout without installing the package.

``src`` goes on ``sys.path`` for the tests themselves and at the front of
``PYTHONPATH`` for the ``python -m specfield`` and demo subprocesses that
some tests start.  ``drawn_fields`` records the innovation batches that the
replication loop draws, in this process and in its forked workers; ``count_started`` counts
the worker processes a test starts and refuses one past a given number.
"""

import os
import pathlib
import sys
import time

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


class DrawnFields:
    """(pid, data address, nbytes, buffer address) of every innovation batch
    the replication loop draws, in order, read from a file that forked workers
    append to.  The buffer is the array that owns the batch's memory."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def clear(self):
        self.path.write_text("")

    def records(self):
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]

    def assert_one_workspace_per_worker(self, workers=1):
        """All of each worker's draws lie in one buffer, within a span of it no
        larger than the batch budget, and some worker drew at least 4 batches;
        past one worker, at least 2 forked children drew them all."""
        from specfield import _util

        records = self.records()
        spans = {}
        for pid, address, nbytes, _ in records:
            lo, hi = spans.get(pid, (address, address + nbytes))
            spans[pid] = (min(lo, address), max(hi, address + nbytes))
        assert all(hi - lo <= _util._BATCH_BYTES for lo, hi in spans.values())
        assert len({(pid, buffer) for pid, _, _, buffer in records}) == len(spans)
        assert max(sum(p == pid for p, *_ in records) for pid in spans) >= 4
        if workers > 1:
            assert len(spans) >= 2 and os.getpid() not in spans


@pytest.fixture
def drawn_fields(monkeypatch, tmp_path):
    from specfield import fieldgen, stats

    fields = DrawnFields(tmp_path / "drawn_fields.txt")
    draw = fieldgen.draw_innovations
    parent = os.getpid()
    owners = []  # held, so that no later buffer can take a drawn one's address

    def recording(*args, **kwargs):
        values = draw(*args, **kwargs)
        owner = values
        while owner.base is not None:
            owner = owner.base
        owners.append(owner)
        with open(fields.path, "a") as fh:
            fh.write(f"{os.getpid()} {values.ctypes.data} {values.nbytes} "
                     f"{owner.ctypes.data}\n")
        if os.getpid() != parent:
            time.sleep(0.01)  # leave chunks for the other workers to take
        return values

    # the one draw of every report: the clt and miller reports call it from
    # stats, and the negligibility report through fieldgen.generate_batch
    monkeypatch.setattr(fieldgen, "draw_innovations", recording)
    monkeypatch.setattr(stats, "draw_innovations", recording)
    return fields


@pytest.fixture
def count_started(monkeypatch):
    """``count_started(most)``: the worker processes started from then on, in a
    list that grows; the start of one more than ``most`` is refused before it
    forks, so a regression that forks too many forks no more than ``most``."""
    import multiprocessing.context

    def install(most):
        started = []
        start = multiprocessing.context.ForkProcess.start

        def counting(process):
            if len(started) == most:
                raise RuntimeError(f"a worker past {most}")
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting)
        return started

    return install
