"""Source hygiene: every name a module imports is used in that module or
re-exported as such, every third-party module `src/` imports is a declared
dependency, the modules import only from the layers below their own,
`mixing` depends on no other part of the package than `bernstein`, `domain`
and `model`, the benchmark's trace finds the library names it wraps,
`blocking` and `fieldgen` re-export only names the benchmark reads through
them, the CLI starts without the process pool's modules, each process loads
only what its command runs, the exact theory loads no sampler, forked workers
raise no warning, README and the `rng` docstring name the innovation stream in
use, one function sizes the replication pool, and every backticked
`module.name` of the docs resolves."""

import ast
import functools
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import specfield
from specfield import bernstein, blocking, mixing, rng
from specfield.model import REAL_GAUSSIAN, first_axis_ma1, spec_to_json

_SRC = Path(__file__).resolve().parents[1] / "src" / "specfield"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Imported names that no ``ast.Name`` reads, except the explicit re-export
    form ``from m import X as X``, which pyflakes and ruff also accept."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == [], f"{path.name} imports names it never uses"


def _runtime_dependencies(pyproject: str) -> set[str]:
    """Import-style names of the ``[project] dependencies`` in a pyproject text,
    e.g. "numpy>=1.24" -> "numpy".  Parsed by hand, as Python 3.10 has no
    ``tomllib``: the strings of the array, up to its first ``]`` outside one."""
    table = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert table, "pyproject.toml has no [project] table"
    start = re.search(r"^dependencies\s*=\s*\[", table.group(1), re.M)
    assert start, "[project] declares no dependencies array"
    names = set()
    for token in re.finditer(r"\"[^\"]*\"|'[^']*'|#[^\n]*|\]", table.group(1)[start.end():]):
        if token.group() == "]":
            return names
        if token.group()[0] != "#":
            names.add(re.match(r"[A-Za-z0-9_.-]+", token.group()[1:-1]).group()
                      .lower().replace("-", "_"))
    raise AssertionError("the dependencies array is not closed")


def test_third_party_imports_are_declared_dependencies():
    """Each top-level module that ``src/`` imports is the standard library, the
    package itself, or a runtime dependency of ``pyproject.toml``; the test
    extra's modules (scipy among them, an oracle only) are not enough."""
    declared = _runtime_dependencies((_SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    imported = {}
    for path in _SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    undeclared = {name: where for name, where in imported.items()
                  if name not in sys.stdlib_module_names and name not in ("__future__", "specfield")
                  and name not in declared}
    assert undeclared == {}
    assert "numpy" in imported


def test_an_explicit_re_export_counts_as_used():
    tree = ast.parse("from m import A as A\nfrom m import B\nimport c as c\nimport d as e\n")
    assert _unused_imports(tree) == ["B (line 2)", "e (line 4)"]


# the package's modules by layer, bottom first, each with the modules it may
# take private names from.  A module imports only from lower layers, at its
# top or inside a function.
_LAYERS = {
    "__init__": (0, ()), "_util": (0, ()), "domain": (0, ()), "kernels": (0, ()),
    "frequencies": (1, ()), "bernstein": (1, ()), "model": (1, ("domain",)), "rng": (1, ()),
    "fieldgen": (2, ("rng",)),
    "periodogram": (3, ()),
    "spectral": (4, ("kernels", "model")), "mixing": (4, ("model",)),
    "stats": (5, ("fieldgen", "frequencies", "periodogram")),
    "blocking": (6, ()),
    "cli": (7, ("domain", "model")),
    "__main__": (8, ()),
}


def _package_imports(tree: ast.Module):
    """(line, module, names) of each import from the package: ``from . import x``
    of a module gives that module and no names, of any other name the package."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "specfield":
            continue
        module = (node.module or "").removeprefix("specfield").lstrip(".")
        if module:
            yield node.lineno, module, [alias.name for alias in node.names]
            continue
        for alias in node.names:
            if alias.name in _LAYERS:
                yield node.lineno, alias.name, []
            else:
                yield node.lineno, "__init__", [alias.name]


def _layer_violations(name: str, tree: ast.Module) -> list[str]:
    layer, providers = _LAYERS[name]
    found = []
    for line, module, names in _package_imports(tree):
        if _LAYERS[module][0] >= layer:
            found.append(f"{name}:{line} imports {module}, which is not below it")
        private = [n for n in names if n.startswith("_") and not n.endswith("__")]
        if private and module not in providers:
            found.append(f"{name}:{line} takes {private} from {module}")
    return found


def test_modules_import_only_from_lower_layers():
    assert set(_LAYERS) == {path.stem for path in _SRC.glob("*.py")}
    found = []
    for name in _LAYERS:
        tree = ast.parse((_SRC / f"{name}.py").read_text(encoding="utf-8"))
        found += _layer_violations(name, tree)
    assert found == []


def test_the_layer_check_sees_imports_inside_functions_and_private_names():
    tree = ast.parse("def f():\n    from .stats import g_functional\n"
                     "from .fieldgen import FieldSample\nfrom .rng import _mix64\n"
                     "from . import __version__, domain\n")
    assert set(_layer_violations("periodogram", tree)) == {
        "periodogram:2 imports stats, which is not below it",
        "periodogram:4 takes ['_mix64'] from rng"}


def test_mixing_imports_only_bernstein_domain_and_model_from_the_package():
    """mixing owns the rho' search; the profile it returns is bernstein's
    MixingProfile, which blocking re-exports."""
    tree = ast.parse((_SRC / "mixing.py").read_text(encoding="utf-8"))
    package = {(node.module or ".").removeprefix("specfield.") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("specfield"))}
    assert package == {"bernstein", "domain", "model"}
    assert blocking.MixingProfile is mixing.MixingProfile is bernstein.MixingProfile


# names perfbench's trace wraps that no longer exist; ROADMAP item 1 mends
# perfbench itself.  A refactor that drops another name fails here.
_KNOWN_ABSENT = {"blocking.generate_batch", "blocking.run_chunked", "spectral.spectral_density",
                 "spectral.autocovariance_table", "spectral.dirichlet_mod"}


_WORKLOADS = _SRC.parents[1] / "perfbench" / "workloads.py"


def _trace_entries(tree: ast.Module) -> list[list[str]]:
    """[module, attribute] of each ``BOUNDARIES`` and ``RUNNERS`` entry of the
    benchmark's trace, read from its source and not imported."""
    return [[ast.literal_eval(part) for part in entry.elts[:2]] for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) in ("BOUNDARIES", "RUNNERS") for t in node.targets)
            for entry in node.value.elts]


def test_trace_boundaries_resolve_but_the_known_absent():
    """Every ``BOUNDARIES`` and ``RUNNERS`` entry of the benchmark's trace
    names an attribute of the library, except the known absent ones: a sixth
    missing name would read 0 unnoticed."""
    entries = _trace_entries(ast.parse(_WORKLOADS.read_text(encoding="utf-8")))
    assert len(entries) > 10
    absent = {f"{module.removeprefix('specfield.')}.{attr}" for module, attr in entries
              if not hasattr(importlib.import_module(module), attr)}
    assert absent <= _KNOWN_ABSENT


def _benchmark_reads(module: str) -> set[str]:
    """The names the benchmark's workloads read through ``specfield.<module>``:
    imported from it, read as an attribute of ``<module>`` or named in a trace
    entry."""
    workloads = ast.parse(_WORKLOADS.read_text(encoding="utf-8"))
    read = {attr for name, attr in _trace_entries(workloads) if name == f"specfield.{module}"}
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and node.module == f"specfield.{module}":
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            read.add(node.attr)
    return read


def _re_exports(statements) -> set[str]:
    """The names bound by the explicit re-exports ``from .m import X as X`` among
    ``statements``."""
    return {alias.name for node in statements
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.asname == alias.name}


def test_blocking_only_re_exports_what_the_benchmark_reads():
    """After its docstring, every statement of ``blocking`` is an explicit
    re-export ``from .m import X as X``, and every name it binds is one the
    benchmark's workloads read through ``specfield.blocking``.  Once they read
    none, the module goes.  ``fieldgen`` re-exports from ``model`` only names the
    benchmark imports from ``specfield.fieldgen``."""
    tree = ast.parse((_SRC / "blocking.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    for node in tree.body[1:]:
        assert (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                and all(alias.asname == alias.name for alias in node.names)), ast.unparse(node)
    for module in ("blocking", "fieldgen"):
        bound = _re_exports(ast.parse((_SRC / f"{module}.py").read_text(encoding="utf-8")).body)
        read = _benchmark_reads(module)
        assert bound and bound <= read, (module, sorted(bound - read))


def test_cli_import_leaves_the_process_pool_out():
    """The worker pool's modules load on the first parallel call, never at
    CLI start."""
    code = ("import sys, specfield.cli; print(sorted({'multiprocessing', "
            "'multiprocessing.connection', 'multiprocessing.sharedctypes', 'ctypes', "
            "'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n", proc.stdout


# runs ``python -m specfield`` with the given arguments, then writes its exit
# code and the names of every module it loaded to stderr
_MODULES_PROBE = """\
import json, runpy, sys
sys.argv = ["specfield", *sys.argv[1:]]
try:
    runpy.run_module("specfield", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    sys.stderr.write(json.dumps([exc.code, sorted(sys.modules)]))
"""


def _loaded_modules(*argv) -> set[str]:
    """The modules a fresh ``python -m specfield *argv`` process loads; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv], capture_output=True,
                          text=True, timeout=120)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code in (0, None), proc.stderr
    return set(modules)


def test_version_and_bare_import_load_no_numpy():
    assert "numpy" not in _loaded_modules("--version")
    proc = subprocess.run([sys.executable, "-c", "import sys, specfield; "
                           "print(sorted(m for m in sys.modules if 'numpy' in m))"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_version_loads_no_dataclasses_or_inspect():
    """``--version`` builds no config, so it loads neither ``dataclasses`` nor
    the ``inspect`` that ``dataclasses`` imports."""
    loaded = _loaded_modules("--version")
    assert not {"dataclasses", "inspect"} & loaded, sorted({"dataclasses", "inspect"} & loaded)


@pytest.mark.parametrize("code", ["import specfield.domain", "import specfield.bernstein",
                                  "import specfield; specfield.plan"])
def test_the_planning_layer_loads_no_numpy(code):
    proc = subprocess.run([sys.executable, "-c", f"{code}; import sys; "
                           "print(sorted(m for m in sys.modules if 'numpy' in m))"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_the_exact_theory_loads_no_sampler():
    """The spec, its lag table, the exact moments, the rho' search and the sums
    load neither the sampler nor the innovation stream."""
    code = ("import sys, specfield.mixing, specfield.periodogram, specfield.spectral; "
            "print(sorted({'specfield.fieldgen', 'specfield.rng'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n", proc.stdout


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Tiny inputs for every subcommand: a spec, a profile and a config."""
    tmp = tmp_path_factory.mktemp("cli_inputs")
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.5)
    paths = {name: str(tmp / f"{name}.json") for name in ("spec", "profile", "config")}
    docs = {"spec": json.loads(spec_to_json(spec)),
            "profile": {"values": {}, "dependence_range": spec.dependence_range},
            "config": {"spec": json.loads(spec_to_json(spec)), "dims": [16],
                       "scheme": {"base": [math.pi / 2], "m": 2, "delta": 0.25},
                       "R": 10, "seed": 3, "q": 0.2, "weights": [1.0, 0.0, 1.0, 0.0]}}
    for name, doc in docs.items():
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


_COMMANDS = {
    "kernels": ["--alpha", "0.7", "--n", "8"],
    "periodogram": ["--spec", "{spec}", "--dims", "16", "--freq", "1.0"],
    "expectation": ["--spec", "{spec}", "--dims", "8", "--freq", "1.0", "--quadrature", "32"],
    "covariance": ["--spec", "{spec}", "--dims", "8", "--freq", "1.0", "--freq2", "2.0"],
    "clt-experiment": ["--config", "{config}"],
    "miller": ["--config", "{config}"],
    "blocking-plan": ["--v1", "64", "--profile", "{profile}", "--q", "0.2"],
    "negligibility": ["--config", "{config}"],
    "mixing-estimate": ["--spec", "{spec}", "--window", "1", "--set-size", "1",
                        "--n-max", "2"],
}


# package modules a command never runs, and so must not load
_NOT_LOADED = {
    "kernels": ("rng", "fieldgen", "stats", "blocking", "mixing", "spectral"),
    "periodogram": ("blocking",),
    "expectation": ("rng", "fieldgen", "blocking"),
    "covariance": ("rng", "fieldgen", "blocking"),
    "clt-experiment": ("bernstein", "mixing", "blocking"),
    "miller": ("bernstein", "mixing", "blocking"),
    "blocking-plan": ("blocking",),
    "negligibility": ("blocking",),
    "mixing-estimate": ("rng", "fieldgen", "blocking"),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_commands_load_no_scipy(command, cli_inputs):
    """No subcommand loads scipy; ``kernels`` loads none of the modules behind
    the fields, the statistics, blocking, mixing or exact moments, the clt and
    miller reports load no blocking plan or rho' search, the exact moments and
    the rho' search load neither the sampler nor the innovation stream, and no
    command loads the ``blocking`` re-exports, which only the benchmark reads."""
    argv = [arg.format(**cli_inputs) for arg in _COMMANDS[command]]
    loaded = _loaded_modules(command, *argv)
    assert "scipy" not in loaded
    heavy = {f"specfield.{name}" for name in _NOT_LOADED.get(command, ())}
    assert heavy.isdisjoint(loaded), sorted(heavy & loaded)


def test_blocking_plan_loads_only_the_planning_layer(cli_inputs):
    """``blocking-plan`` is integer arithmetic: it loads no numpy, and none of
    the package modules behind the fields, sums, statistics or the rho' search."""
    argv = [arg.format(**cli_inputs) for arg in _COMMANDS["blocking-plan"]]
    loaded = _loaded_modules("blocking-plan", *argv)
    assert "numpy" not in loaded
    heavy = {f"specfield.{name}" for name in ("rng", "fieldgen", "periodogram", "stats",
                                               "mixing", "blocking")}
    assert heavy.isdisjoint(loaded), sorted(heavy & loaded)
    assert "specfield.bernstein" in loaded


def test_the_lazy_namespace_resolves_every_public_name():
    for name in specfield.__all__:
        module = importlib.import_module(f"specfield.{specfield._MODULE_OF[name]}")
        assert getattr(specfield, name) is getattr(module, name)
    assert set(specfield.__all__) <= set(dir(specfield))
    with pytest.raises(AttributeError, match="no_such_name"):
        specfield.no_such_name  # noqa: B018


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


def test_readme_and_rng_docstring_name_the_stream_in_use():
    """README's two "now N" statements of the innovation stream and the rng
    docstring's "Stream N (``RNG_STREAM``)" all name ``rng.RNG_STREAM``."""
    readme = (_SRC.parents[1] / "README.md").read_text()
    stream = str(rng.RNG_STREAM)
    assert re.findall(r"\bnow\s+(\d+)", readme) == [stream, stream]
    assert re.findall(r"Stream (\d+) \(``RNG_STREAM``\)", rng.__doc__) == [stream]


def _pool_sizings(tree: ast.Module) -> set[str]:
    """The functions (``<module>`` outside any) that hold a string naming
    SPECFIELD_THREADS, docstrings aside, or call ``usable_cpus``."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def scope(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return "<module>"

    return {scope(node) for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "SPECFIELD_THREADS" in node.value and id(node) not in docstrings)
            or (isinstance(node, ast.Call)
                and "usable_cpus" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)))}


def test_one_function_sizes_the_replication_pool():
    """Only ``_util.worker_count`` reads SPECFIELD_THREADS or asks for the
    usable CPUs: chunking and forking both take their count from it."""
    found = {f"{path.stem}.{name}" for path in _SRC.glob("*.py")
             for name in _pool_sizings(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"_util.worker_count"}
    tree = ast.parse('"""SPECFIELD_THREADS"""\ndef f():\n    """SPECFIELD_THREADS"""\n'
                     '    return _util.usable_cpus()\nX = "SPECFIELD_THREADS"\n')
    assert _pool_sizings(tree) == {"f", "<module>"}


# the modules a backticked path may start with; importing __main__ would run the CLI
_PACKAGE_MODULES = {path.stem for path in _MODULES} - {"__main__"}


def _backticked_paths(text: str) -> list[str]:
    """The dotted paths that ``text`` puts in single or double backticks and
    that start with a module of the package (``specfield.`` dropped)."""
    paths = []
    for path in re.findall(r"`+([A-Za-z_][\w.]*\w)`+", text):
        parts = path.removeprefix("specfield.").split(".")
        if len(parts) > 1 and parts[0] in _PACKAGE_MODULES:
            paths.append(".".join(parts))
    return paths


def _docs_and_comments(path: Path) -> list[str]:
    """The docstrings and the comments of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    comments = [token.string for token in tokenize.generate_tokens(io.StringIO(text).readline)
                if token.type == tokenize.COMMENT]
    return [doc for doc in docs if doc] + comments


def test_every_backticked_module_name_in_the_docs_resolves():
    """Each backticked `module.name` in README.md and in the docstrings and
    comments of `src/` names an attribute of ``specfield.<module>``, so a
    rename or a deletion leaves no reference dangling."""
    texts = {"README.md": [(_SRC.parents[1] / "README.md").read_text(encoding="utf-8")]}
    texts.update((path.name, _docs_and_comments(path)) for path in sorted(_SRC.glob("*.py")))
    dangling, found = [], 0
    for where, chunks in texts.items():
        for path in (path for chunk in chunks for path in _backticked_paths(chunk)):
            found += 1
            module, *names = path.split(".")
            try:
                functools.reduce(getattr, names, importlib.import_module(f"specfield.{module}"))
            except AttributeError:
                dangling.append(f"{where}: {path}")
    assert dangling == []
    assert found > 20  # the scan sees the references that the docs hold
    assert _backticked_paths("``rng.x`` and `np.y`, `specfield.stats._entry` and `tools/a.py`"
                             ) == ["rng.x", "stats._entry"]
