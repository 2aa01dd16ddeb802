"""Source hygiene: every name a module imports is used in that module,
`mixing` depends on no other part of the package than `fieldgen`, the
benchmark's trace finds the library names it wraps, the CLI starts
without the process pool's modules, and forked workers raise no warning."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specfield import blocking, mixing
from specfield.fieldgen import REAL_GAUSSIAN, first_axis_ma1, spec_to_json

_SRC = Path(__file__).resolve().parents[1] / "src" / "specfield"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == [], f"{path.name} imports names it never uses"


def test_mixing_imports_only_fieldgen_from_the_package():
    """mixing owns rho' and its profile; blocking reads MixingProfile from it."""
    tree = ast.parse((_SRC / "mixing.py").read_text(encoding="utf-8"))
    package = {(node.module or ".").removeprefix("specfield.") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("specfield"))}
    assert package == {"fieldgen"}
    assert blocking.MixingProfile is mixing.MixingProfile


# names perfbench's trace wraps that no longer exist; ROADMAP item 1 mends
# perfbench itself.  A refactor that drops another name fails here.
_KNOWN_ABSENT = {"blocking.generate_batch", "blocking.run_chunked", "spectral.spectral_density",
                 "spectral.autocovariance_table", "spectral.dirichlet_mod"}


def test_trace_boundaries_resolve_but_the_known_absent():
    """Every ``BOUNDARIES`` and ``RUNNERS`` entry of the benchmark's trace,
    read from its source and not imported, names an attribute of the library,
    except the known absent ones: a sixth missing name would read 0 unnoticed."""
    path = _SRC.parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    entries = [[ast.literal_eval(part) for part in entry.elts[:2]] for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) in ("BOUNDARIES", "RUNNERS") for t in node.targets)
               for entry in node.value.elts]
    assert len(entries) > 10
    absent = {f"{module.removeprefix('specfield.')}.{attr}" for module, attr in entries
              if not hasattr(importlib.import_module(module), attr)}
    assert absent <= _KNOWN_ABSENT


def test_cli_import_leaves_the_process_pool_out():
    """The worker pool's modules load on the first parallel call, never at
    CLI start."""
    code = ("import sys, specfield.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n", proc.stdout


def test_forked_workers_print_what_one_worker_prints(tmp_path):
    """Under ``-W error``, two forked workers write the 1-worker report's
    bytes and nothing on stderr."""
    config = tmp_path / "clt.json"
    config.write_text(json.dumps({
        "spec": json.loads(spec_to_json(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.5))),
        "dims": [65536], "scheme": {"base": [math.pi / 2], "m": 2, "delta": 0.25},
        "R": 30, "seed": 7}))  # one replication a batch
    runs = [subprocess.run([sys.executable, "-W", "error", "-m", "specfield", "clt-experiment",
                            "--config", str(config)], capture_output=True,
                           env=dict(os.environ, SPECFIELD_THREADS=threads), timeout=120)
            for threads in ("1", "2")]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, b"")] * 2
    assert runs[1].stdout == runs[0].stdout
