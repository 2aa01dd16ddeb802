"""Run the suite from a checkout without installing the package.

``src`` goes on ``sys.path`` for the tests themselves and at the front of
``PYTHONPATH`` for the ``python -m specfield`` and demo subprocesses that
some tests start.  ``drawn_fields`` records the chunks of the replication
loop.
"""

import os
import pathlib
import sys
import threading

import numpy as np
import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


class DrawnFields(list):
    """(thread id, values) of every chunk the replication loop draws, in order."""

    def assert_one_workspace_per_worker(self, chunks):
        """Each worker drew every chunk into the memory of its first one, and
        some worker ran at least 4 chunks."""
        assert len(self) == chunks
        first = {}
        for thread, values in self:
            assert np.shares_memory(values, first.setdefault(thread, values))
        assert max(sum(t == thread for t, _ in self) for thread in first) >= 4


@pytest.fixture
def drawn_fields(monkeypatch):
    from specfield import stats

    fields = DrawnFields()
    generate_batch = stats.generate_batch

    def recording(*args, **kwargs):
        values = generate_batch(*args, **kwargs)
        fields.append((threading.get_ident(), values))
        return values

    monkeypatch.setattr(stats, "generate_batch", recording)
    return fields
