"""Run the suite from a checkout without installing the package.

``src`` goes on ``sys.path`` for the tests themselves and at the front of
``PYTHONPATH`` for the ``python -m specfield`` and demo subprocesses that
some tests start.  ``drawn_fields`` records the chunks of the replication
loop, in this process and in its forked workers.
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
    """(pid, data address, nbytes) of every chunk the replication loop draws,
    in order, read from a file that forked workers append to."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def clear(self):
        self.path.write_text("")

    def records(self):
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]

    def assert_one_workspace_per_worker(self, chunks, workers=1):
        """Each worker drew every chunk into the memory of its first one, and
        some worker ran at least 4 chunks; past one worker, at least 2 forked
        children drew them all."""
        records = self.records()
        assert len(records) == chunks
        first = {}
        for pid, address, nbytes in records:
            start, size = first.setdefault(pid, (address, nbytes))
            assert address < start + size and start < address + nbytes
        assert max(sum(p == pid for p, _, _ in records) for pid in first) >= 4
        if workers > 1:
            assert len(first) >= 2 and os.getpid() not in first


@pytest.fixture
def drawn_fields(monkeypatch, tmp_path):
    from specfield import stats

    fields = DrawnFields(tmp_path / "drawn_fields.txt")
    generate_batch = stats.generate_batch
    parent = os.getpid()

    def recording(*args, **kwargs):
        values = generate_batch(*args, **kwargs)
        with open(fields.path, "a") as fh:
            fh.write(f"{os.getpid()} {values.ctypes.data} {values.nbytes}\n")
        if os.getpid() != parent:
            time.sleep(0.01)  # leave chunks for the other workers to take
        return values

    monkeypatch.setattr(stats, "generate_batch", recording)
    return fields
