"""Source hygiene: every name a module imports is used in that module, and
`mixing` depends on no other part of the package than `fieldgen`."""

import ast
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
