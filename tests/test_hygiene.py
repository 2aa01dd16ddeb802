"""Source hygiene: every name a module imports is used in that module,
`mixing` depends on no other part of the package than `fieldgen`, and the
benchmark's trace finds the library names it wraps."""

import ast
import importlib
from pathlib import Path

import pytest

from specfield import blocking, mixing

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
