"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["environment"]["nproc"] >= 1


def _boundary_attrs():
    return ([(m, a) for m, a, _, _ in workloads.BOUNDARIES]
            + [(m, a) for m, a, _, _ in workloads.RUNNERS])


def test_wrappers_are_installed_and_restored(tmp_path):
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a in _boundary_attrs()}
    wl = workloads.McClt2d(seed=5, smoke=True, workdir=str(tmp_path))
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            workloads.install(tracer)
            for (m, a), original in originals.items():
                assert getattr(importlib.import_module(m), a) is not original
            wl.run_pass(tracer)
            raise RuntimeError("restore must survive an exception")
    for (m, a), original in originals.items():
        assert getattr(importlib.import_module(m), a) is original
    assert tracer.count("rng.gaussian_lattice") >= 1
    assert tracer.count("fieldgen.generate_batch") >= 1
    assert tracer.absent == []


def test_missing_boundary_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr("specfield.blocking.plan")
    tracer = spans.Tracer()
    assert not tracer.wrap("specfield.no_such_module", "f", "x.f")
    with tracer:
        workloads.install(tracer)
        wl = workloads.McClt2d(seed=5, smoke=True, workdir=str(tmp_path))
        lo = time.perf_counter()
        out = wl.run_pass(tracer)
        hi = time.perf_counter()
    assert tracer.absent == ["specfield.no_such_module.f", "specfield.blocking.plan"]
    layers = workloads.layer_metrics(tracer, lo, hi, wl, out)
    assert layers["blocking.plan.s"] == 0
    assert layers["rng.gaussian_lattice.calls"] >= 1


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    own = tracer.self_times()
    outer, = tracer.named("outer")
    inner, = tracer.named("inner")
    assert inner.parent == outer.sid
    assert own[outer.sid] == pytest.approx(outer.duration - inner.duration)
    assert spans.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        (bench / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_clt2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
