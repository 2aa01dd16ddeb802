"""Benchmark of specfield: four workloads, end-to-end metrics, traced layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_clt2d --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see BENCHMARK.json); ``--smoke`` runs the workload at toy size.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
full record: parameters, thread pins, environment, pass times and, for a
traced run, the span summary of the last traced pass and the names of any
boundary it could not find.

The library is imported from ``src/`` of the checkout; when it is not there
the benchmark exits with status 2 and prints no result.

Each run warms up with one pass, then times passes for ``--seconds`` (at
least ``MIN_PASSES``) and reports medians; the traced run alternates
untraced and traced passes so the tracing overhead is measured too.  ``setup_s`` is the median over
``SETUP_REPEATS`` fresh interpreters of the time from before ``import
specfield`` until the workload's inputs are built.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (full, smoke) repeat counts
MIN_PASSES = (3, 1)
MIN_TRACED_PAIRS = (2, 1)
SETUP_REPEATS = (5, 2)
IMPORT_REPEATS = (5, 1)

# threads per workload; BLAS pools pinned to one thread everywhere so no
# process runs more threads than the two cores
SPECFIELD_THREADS = {"mc_clt2d": 1, "mc_neglig1d": 2, "theory": 1, "cli_cold": 1}
WORKLOAD_NAMES = tuple(SPECFIELD_THREADS)

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_frac": "ratio"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def thread_pins(workload: str) -> dict:
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "SPECFIELD_THREADS": str(SPECFIELD_THREADS[workload])}


def _python(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)


def setup_samples(args, count: int) -> list[float]:
    """Set-up time in ``count`` fresh interpreters."""
    cmd = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + (["--smoke"] if args.smoke else [])
    return [json.loads(_python(cmd).stdout.splitlines()[-1])["setup_s"]
            for _ in range(count)]


_IMPORT_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import specfield
t2 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "specfield": t2 - t1, "modules": len(sys.modules)}))
"""


def import_metrics(repeats: int) -> dict:
    """Interpreter start and import costs, each in fresh processes."""
    interp, numpy_s, spec_s, modules = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _python(["-c", "pass"])
        interp.append(time.perf_counter() - t0)
        probe = json.loads(_python(["-c", _IMPORT_PROBE]).stdout)
        numpy_s.append(probe["numpy"])
        spec_s.append(probe["specfield"])
        modules.append(probe["modules"])
    return {"cli.interp_s": statistics.median(interp),
            "cli.numpy_import_s": statistics.median(numpy_s),
            "cli.import_s": statistics.median(spec_s),
            "cli.modules_loaded": max(modules)}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    """Machine, toolchain and source revision of this result."""
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return None

    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            level = _read(os.path.join(base, entry, "level"))
            size = _read(os.path.join(base, entry, "size"))
            if level in ("2", "3") and size:
                caches[f"L{level}"] = size
    sha = dirty = None
    if (ROOT / ".git").exists():
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                 capture_output=True, text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        env=git_env, capture_output=True, text=True,
                                        check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or None,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def _median_dict(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


class PassFailed(Exception):
    """A workload operation raised; the run stops and reports no metrics."""


def timed_pass(wl, tracer, checks) -> tuple[float, object]:
    """Run one pass, count it as an operation and check its output."""
    t0 = time.perf_counter()
    try:
        out = wl.run_pass(tracer)
    except Exception as exc:
        checks.check("pass completed", False, repr(exc))
        raise PassFailed(repr(exc)) from exc
    seconds = time.perf_counter() - t0
    checks.check("pass completed", True)
    wl.check(out, checks)
    return seconds, out


def measure(wl, args, checks) -> tuple[dict, dict]:
    """Untraced passes: end-to-end metrics and the pass times."""
    from spans import NullTracer

    tracer = NullTracer()
    wl.warm_up(tracer)
    times = []
    start = time.perf_counter()
    while (len(times) < MIN_PASSES[args.smoke]
           or time.perf_counter() - start < args.seconds):
        times.append(timed_pass(wl, tracer, checks)[0])
    wall = statistics.median(times)
    metrics = {"wall_s": wall, "work_per_s": wl.work_units() / wall}
    return metrics, {"pass_s": times}


def measure_traced(wl, args, checks) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer medians and overhead."""
    import workloads
    from spans import NullTracer, Tracer

    null = NullTracer()
    wl.warm_up(null)
    plain, traced, layers, absent = [], [], [], set()
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PAIRS[args.smoke]
           or time.perf_counter() - start < args.seconds):
        plain.append(timed_pass(wl, null, checks)[0])
        tracer = Tracer()
        with tracer:
            workloads.install(tracer)
            lo = time.perf_counter()
            seconds, out = timed_pass(wl, tracer, checks)
        traced.append(seconds)
        layers.append(workloads.layer_metrics(tracer, lo, lo + seconds, wl, out))
        absent.update(tracer.absent)
    metrics = _median_dict(layers)
    metrics.update(import_metrics(IMPORT_REPEATS[args.smoke]))
    metrics.update(wl.cli_layers())
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.absent"] = len(absent)
    return metrics, {"pass_s": plain, "traced_pass_s": traced, "absent": sorted(absent),
                     "last_traced_spans": tracer.summary()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specfield" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no specfield sources under {SRC}\n")
        return 2
    pins = thread_pins(args.workload)
    os.environ.update(pins)                        # before numpy is imported
    old_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old_path if old_path else "")
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = HERE / ".work" / f"run-{os.getpid()}"

    try:
        t0 = time.perf_counter()
        import specfield
        import workloads
        if Path(specfield.__file__).resolve().parent != SRC / "specfield":
            sys.stderr.write(f"perfbench: imported specfield from {specfield.__file__}\n")
            return 2
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, str(workdir))
        own_setup = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0

        checks = workloads.Checks()
        wl.prepare_gates(checks)
        setups = [own_setup]
        if args.trace:
            metrics, detail = measure_traced(wl, args, checks)
        else:
            setups += setup_samples(args, SETUP_REPEATS[args.smoke] - 1)
            metrics, detail = measure(wl, args, checks)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = wl.peak_rss_mb()
            metrics["pass_frac"] = 1.0 - checks.failed / checks.attempted
        units = END_TO_END_UNITS if not args.trace else workloads.LAYER_UNITS
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "params": wl.params(),
            "thread_pins": pins, "setup_samples_s": setups,
            "work_units": wl.work_units(), "failures": checks.failures,
            "environment": environment(), **wl.record(), **detail,
        }
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    except PassFailed as exc:
        sys.stderr.write(f"perfbench: {args.workload} failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
