"""Run the suite from a checkout without installing the package.

``src`` goes on ``sys.path`` for the tests themselves and at the front of
``PYTHONPATH`` for the ``python -m specfield`` and demo subprocesses that
some tests start.
"""

import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
