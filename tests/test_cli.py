"""End-to-end checks of the command-line surface, via subprocess."""

import copy
import csv
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from specfield import cli
from specfield.kernels import dirichlet_mod, fejer
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, LinearFieldSpec, first_axis_ma1,
                             spec_to_json, white_noise)


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "specfield", *args],
                          capture_output=True, text=True, **kwargs)


@pytest.fixture
def ma1_spec_file(tmp_path):
    path = tmp_path / "ma1.json"
    path.write_text(spec_to_json(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)))
    return str(path)


@pytest.fixture
def clt_config_file(tmp_path):
    def write(seed=2024, delta=0.25, name="cfg.json", drop=None):
        doc = {
            "spec": json.loads(spec_to_json(white_noise(1, CIRCULAR_GAUSSIAN, 1.0))),
            "dims": [16],
            "scheme": {"base": [math.pi / 2], "m": 2, "delta": delta},
            "R": 50,
            "seed": seed,
            "q": 0.2,
            "weights": [1.0, 0.0, 1.0, 0.0],
        }
        if drop:
            del doc[drop]
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("specfield ")


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 64


def test_no_subcommand_is_one_line_usage_error():
    proc = run_cli()
    assert proc.stdout == ""
    assert proc.stderr.startswith("specfield: error: ") and proc.stderr.count("\n") == 1
    assert "subcommand" in proc.stderr


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 64
    assert "usage" in proc.stderr


def test_kernels_values():
    proc = run_cli("kernels", "--alpha", "1.0", "--n", "5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["fejer"] == fejer(1.0, 5)
    d = dirichlet_mod(1.0, 5)
    assert doc["dirichlet"] == {"re": d.real, "im": d.imag}


def test_kernels_nan_is_refused():
    proc = run_cli("kernels", "--alpha", "nan", "--n", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1


def test_import_loads_no_scipy():
    code = "import sys, specfield; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_periodogram_runs(ma1_spec_file):
    proc = run_cli("periodogram", "--spec", ma1_spec_file, "--dims", "32",
                   "--freq", "0.7", "--seed", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    s = complex(doc["S"]["re"], doc["S"]["im"])
    assert doc["I"] == pytest.approx(abs(s) ** 2 / 32, abs=1e-12)


def test_periodogram_sums_its_sample_once(monkeypatch, capsys, ma1_spec_file):
    """The command builds one phase grid and emits ``periodogram_vector``'s S
    and I of the same sample, to the last bit."""
    import importlib

    from specfield.domain import BoxDims, Frequency
    from specfield.fieldgen import generate

    # the package exports a function named periodogram, so fetch the module
    module = importlib.import_module("specfield.periodogram")
    phase_grid, built = module.phase_grid, []

    def spy(dims, lam, shift=None):
        built.append(lam)
        return phase_grid(dims, lam, shift)

    monkeypatch.setattr(module, "phase_grid", spy)
    assert cli.main(["periodogram", "--spec", ma1_spec_file, "--dims", "32", "--freq", "0.7",
                     "--seed", "3", "--shift", "2"]) == 0
    assert len(built) == 1
    doc = json.loads(capsys.readouterr().out)
    sample = generate(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0), BoxDims((32,)), (2,), 3)
    [(s, i)] = module.periodogram_vector(sample, [Frequency((0.7,))])
    assert list(map(repr, (doc["S"]["re"], doc["S"]["im"], doc["I"]))) == \
        list(map(repr, (s.real, s.imag, i)))


def test_periodogram_refuses_a_shift_past_2_to_the_53(ma1_spec_file):
    """A box at a shift of 2^60 is drawn, but its phases would merge
    neighbouring sites; the command exits 1 with one line naming the shift."""
    proc = run_cli("periodogram", "--spec", ma1_spec_file, "--dims", "4", "--freq", "0.5",
                   "--shift", "1152921504606846976")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: shift [1152921504606846976] puts a box coordinate")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_expectation_exact_and_quadrature(ma1_spec_file):
    proc = run_cli("expectation", "--spec", ma1_spec_file, "--dims", "2",
                   "--freq", "0", "--quadrature", "8")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    # E I at frequency 0 for the (1,1) moving average on a 2-point box:
    # lag sum (1 - 0/2)*2 + (1 - 1/2)*(1 + 1) = 3
    assert doc["exact"] == pytest.approx(3.0, abs=1e-12)
    assert doc["quadrature"] == pytest.approx(3.0, abs=1e-9)


def test_expectation_report_csv(ma1_spec_file, tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("expectation", "--spec", ma1_spec_file,
                   "--report-csv", str(out), "--dims-sequence", "4;8",
                   "--grid", "64")
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["v"] for r in rows] == ["4", "8"]
    # sup |E I - f| for the triangular-weight bias of the (1,1) filter is 2/v1
    assert float(rows[0]["sup_err"]) == pytest.approx(0.5, abs=1e-9)
    assert float(rows[1]["sup_err"]) == pytest.approx(0.25, abs=1e-9)


def test_covariance_circular_product_vanishes(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(spec_to_json(first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 0.5)))
    proc = run_cli("covariance", "--spec", str(path), "--dims", "8",
                   "--freq", "0.5", "--freq2", "1.1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["product"] == {"re": 0.0, "im": 0.0, "abs": 0.0}
    assert doc["covariance"]["abs"] > 0.0


def test_blocking_plan(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"values": {"4": 0.25}}))
    proc = run_cli("blocking-plan", "--v1", "100", "--profile", str(profile),
                   "--q", "0.2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert (doc["s"], doc["p"], doc["r"]) == (4, 2, 47)
    assert doc["block_first_ranges"][0] == [1, 47]


def test_clt_report_schema_and_determinism(clt_config_file, tmp_path):
    cfg = clt_config_file(seed=2024)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("clt-experiment", "--config", cfg, "--out", str(out_a)).returncode == 0
    assert run_cli("clt-experiment", "--config", cfg, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    for key in ("dims", "frequencies", "target_diagonal", "covariance",
                "max_cov_error", "coordinate_ks", "periodogram_ks",
                "max_cross_correlation", "replications", "seed"):
        assert key in doc
    other = clt_config_file(seed=2025, name="cfg2.json")
    out_c = tmp_path / "c.json"
    assert run_cli("clt-experiment", "--config", other, "--out", str(out_c)).returncode == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_clt_csv_rows(clt_config_file, tmp_path):
    cfg = clt_config_file()
    out_csv = tmp_path / "raw.csv"
    proc = run_cli("clt-experiment", "--config", cfg, "--out",
                   str(tmp_path / "r.json"), "--csv", str(out_csv))
    assert proc.returncode == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replication", "s1_re", "s1_im", "i1", "s2_re", "s2_im", "i2"]
    assert len(rows) == 51  # header + R


def test_bad_delta_names_the_bound(clt_config_file):
    cfg = clt_config_file(delta=0.7, name="bad.json")
    proc = run_cli("clt-experiment", "--config", cfg)
    assert proc.returncode == 1
    assert "0 < delta < 1/2" in proc.stderr


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "spec": ,\n}')
    proc = run_cli("clt-experiment", "--config", str(path))
    assert proc.returncode == 1
    assert "line 2" in proc.stderr and "column" in proc.stderr


def test_missing_config_field(clt_config_file):
    cfg = clt_config_file(name="partial.json", drop="seed")
    proc = run_cli("clt-experiment", "--config", cfg)
    assert proc.returncode == 1
    assert "missing required field" in proc.stderr


def test_malformed_config_shapes_exit_one(clt_config_file, tmp_path):
    with open(clt_config_file()) as fh:
        doc = json.load(fh)
    inputs = [("list.json", [1, 2]), ("scheme.json", dict(doc, scheme=5)),
              ("weights.json", dict(doc, weights=5))]
    for name, content in inputs:
        path = tmp_path / name
        path.write_text(json.dumps(content))
        proc = run_cli("clt-experiment", "--config", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "malformed config document" in proc.stderr


def test_miller_single_replication_is_refused(clt_config_file):
    path = clt_config_file()
    with open(path) as fh:
        doc = json.load(fh)
    doc["R"] = 1
    with open(path, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli("miller", "--config", path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "need at least 2 replications" in proc.stderr


def test_miller_table(clt_config_file):
    cfg = clt_config_file()
    proc = run_cli("miller", "--config", cfg)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["dims"] == [16]
    assert doc["rows"][0]["target"] == pytest.approx(1.0)  # f/2 * ||(1,0,1,0)||^2


def test_negligibility_table(clt_config_file, tmp_path):
    cfg = clt_config_file()
    out_csv = tmp_path / "neg.csv"
    proc = run_cli("negligibility", "--config", cfg, "--csv", str(out_csv))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rows"][0]["v1"] == 16
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["v1"] == "16"


def test_mixing_estimate_feeds_blocking_plan(ma1_spec_file, tmp_path):
    profile = tmp_path / "estimated.json"
    proc = run_cli("mixing-estimate", "--spec", ma1_spec_file, "--window", "1",
                   "--set-size", "1", "--n-max", "2", "--out", str(profile))
    assert proc.returncode == 0
    doc = json.loads(profile.read_text())
    assert doc["values"]["1"] == pytest.approx(0.5, abs=1e-12)
    assert doc["values"]["2"] == 0.0
    follow = run_cli("blocking-plan", "--v1", "1000", "--profile", str(profile),
                     "--q", "0.2")
    assert follow.returncode == 0
    assert json.loads(follow.stdout)["s"] == 10


def _assert_one_line_refusal(proc, needle):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert needle in proc.stderr


@pytest.mark.parametrize("path, value, field", [
    (("R",), 2.9, "'R'"),
    (("R",), True, "'R'"),
    (("seed",), 3.7, "'seed'"),
    (("scheme", "m"), 2.0, "'scheme.m'"),
    (("scheme", "axis"), False, "'scheme.axis'"),
    (("dims", 0), 16.0, "'dims[0]'"),
    (("seeds",), 7, "unknown key 'seeds'"),
    (("scheme", "axes"), 1, "unknown key 'scheme.axes'"),
    (("dims",), 16, "field 'dims' must be an array, got 16"),
    (("weights",), 5, "field 'weights' must be an array, got 5"),
    (("dims_sequence",), [16], "field 'dims_sequence[0]' must be an array, got 16"),
    (("scheme", "base"), 1.57, "field 'scheme.base' must be an array, got 1.57"),
    (("spec",), [1], "field 'spec' must be an object, got [1]"),
    (("spec", "innovation_std"), 1e200, "innovation_std"),
], ids=["R-float", "R-bool", "seed-float", "m-float", "axis-bool", "dims-float",
        "unknown-key", "unknown-scheme-key", "dims-int", "weights-int",
        "dims-sequence-entry-int", "base-float", "spec-list", "std-overflow"])
def test_config_integer_fields_refuse_floats_and_bools(clt_config_file, path, value,
                                                       field):
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    _assert_one_line_refusal(run_cli("miller", "--config", cfg), field)


@pytest.mark.parametrize("doc", [
    {"values": {"4": [0.25]}},
    {"values": {"4": 0.25}, "dependence_range": [1]},
    {"values": {"4": 0.25}, "dependence_range": 1.5},
    {"values": {"4": 0.25}, "dependence_range": True},
    {"values": {"4": "0.25"}},
    {"values": {"4": True}},
    {"values": {" 4": 0.25}},
    {"value": {"4": 0.25}},
    [{"values": {"4": 0.25}}],
    {"values": [0.25]},
], ids=["value-list", "range-list", "range-float", "range-bool", "value-string",
        "value-bool", "key-space", "unknown-key", "document-list", "values-list"])
def test_malformed_profile_documents_exit_one(tmp_path, doc):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    proc = run_cli("blocking-plan", "--v1", "100", "--profile", str(profile),
                   "--q", "0.2")
    _assert_one_line_refusal(proc, "malformed profile document")


@pytest.mark.parametrize("path, value, message", [
    (("weights", 0), True, "error: field 'weights[0]' must be a real number, got true"),
    (("q",), "0.2", "error: field 'q' must be a real number, got \"0.2\""),
    (("scheme", "delta"), True, "error: field 'scheme.delta' must be a real number, got true"),
    (("scheme", "base", 0), "1.5707963",
     "error: field 'scheme.base[0]' must be a real number, got \"1.5707963\""),
    (("scheme", "base", 0), True, "error: field 'scheme.base[0]' must be a real number, got true"),
], ids=["weight-bool", "q-string", "delta-bool", "base-string", "base-bool"])
def test_config_real_fields_refuse_bools_and_strings(clt_config_file, path, value,
                                                    message):
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli("miller", "--config", cfg)
    _assert_one_line_refusal(proc, message)
    assert proc.stderr.strip() == message


def test_fan_whose_ends_meet_across_pi_is_refused(clt_config_file):
    """At v = 64 and delta = 0.49 the fan -3.1, ..., 2.65 has its ends 0.53
    apart on the circle, inside the 64^(-0.01) = 0.96 gap."""
    cfg = clt_config_file(delta=0.49)
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["dims"] = [64]
    doc["scheme"].update(base=[-3.1], m=4)
    doc["weights"] = [1.0, 0.0] * 4
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    for cmd in ("clt-experiment", "miller"):
        _assert_one_line_refusal(run_cli(cmd, "--config", cfg),
                                 "violate separation at pair (1, 4)")


def test_negligibility_refuses_a_fan_whose_ends_meet_across_pi(clt_config_file):
    """White circular noise, v = 64, base -3.1, m = 4, delta = 0.49: the fan's
    ends are 0.53 apart on the circle against a 0.96 gap."""
    cfg = clt_config_file(delta=0.49)
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["dims"] = [64]
    doc["scheme"].update(base=[-3.1], m=4)
    doc["weights"] = [1.0, 0.0] * 4
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    _assert_one_line_refusal(run_cli("negligibility", "--config", cfg),
                             "violate separation at pair (1, 4)")


def test_real_fan_symmetric_about_zero_is_refused(clt_config_file):
    """A real MA(1) fan from -0.3535 with step 2 * 64^(-1/4) ends at +0.3536:
    lambda_1 + lambda_2 is 1e-4 from 0, so S(lambda_2) is nearly conj
    S(lambda_1) and every Monte Carlo command refuses the pair."""
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["spec"] = json.loads(spec_to_json(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)))
    doc["dims"] = [64]
    doc["scheme"].update(base=[-0.3535])
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    for cmd in ("clt-experiment", "miller", "negligibility"):
        _assert_one_line_refusal(run_cli(cmd, "--config", cfg),
                                 "violate separation at pair (1, 2) against -mu")


def _ma1_doc():
    return json.loads(spec_to_json(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)))


@pytest.mark.parametrize("path, value, message", [
    (("taps", 1, "lag"), [0], "field 'taps[1]' repeats the lag [0] of an earlier tap"),
    (("dim",), None, "field 'dim' must be an integer, got null"),
    (("innovation_std",), None, "field 'innovation_std' must be a real number, got null"),
    (("dim",), 1.9, "field 'dim' must be an integer, got 1.9"),
    (("taps", 0, "lag"), [0.7], "field 'taps[0].lag[0]' must be an integer, got 0.7"),
    (("taps", 0, "re"), True, "field 'taps[0].re' must be a real number, got true"),
    (("innovation_std",), "2", "field 'innovation_std' must be a real number, got \"2\""),
    (("taps", 0, "im"), math.nan, "field 'taps[0].im' must be a real number, got NaN"),
    (("taps", 0, "imag"), 0.5, "malformed field spec document: unknown key 'taps[0].imag'"),
    (("taps", 0, "lag"), 0,
     "malformed field spec document: field 'taps[0].lag' must be an array, got 0"),
    (("taps",), {"0": 1},
     "malformed field spec document: field 'taps' must be an array, got {\"0\": 1}"),
    (("taps", 0, "re"), 1e300, "the field variance innovation_std^2 * sum |tap|^2 overflows"),
], ids=["repeated-lag", "dim-null", "std-null", "dim-float", "lag-float", "re-bool",
        "std-string", "im-nan", "unknown-tap-key", "lag-int", "taps-object",
        "tap-overflow"])
def test_malformed_spec_documents_exit_one(tmp_path, path, value, message):
    doc = _ma1_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    proc = run_cli("expectation", "--spec", str(spec), "--dims", "8", "--freq", "1.0")
    _assert_one_line_refusal(proc, message)
    assert proc.stderr.strip() == f"error: {message}"


def test_config_spec_errors_name_the_path(clt_config_file):
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["spec"]["taps"][0]["re"] = "1"
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    _assert_one_line_refusal(run_cli("clt-experiment", "--config", cfg),
                             "field 'spec.taps[0].re' must be a real number")


def test_config_with_dims_and_dims_sequence_is_refused(clt_config_file):
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["dims_sequence"] = [[8], [16]]
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    for cmd in ("clt-experiment", "miller", "negligibility"):
        proc = run_cli(cmd, "--config", cfg)
        _assert_one_line_refusal(proc, "'dims' and 'dims_sequence'")


def test_unexpected_errors_are_one_line_with_exit_two(monkeypatch, capsys):
    """A defect surfaces as one stderr line and exit 2, never a traceback."""
    def broken(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "_cmd_kernels", broken)
    assert cli.main(["kernels", "--alpha", "0.5", "--n", "4"]) == cli.INTERNAL_EXIT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: first line second line\n"


def test_a_worker_error_is_one_line_with_exit_one(monkeypatch, capfd, clt_config_file):
    """A refusal raised in a forked replication worker reaches the command
    line as one stderr line and exit 1, with no worker left behind."""
    from specfield import _util, stats

    def failing(*args, **kwargs):
        raise ValueError("draw refused in a worker")

    monkeypatch.setattr(stats, "draw_innovations", failing)
    # 256 bytes of lattice a replication: 20 replications a batch, 3 batches
    monkeypatch.setattr(_util, "_BATCH_BYTES", 512 * 10)
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    assert cli.main(["clt-experiment", "--config", clt_config_file()]) == cli.VALIDATION_EXIT
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: draw refused in a worker\n"
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    """An error that holds a lambda, so pickle refuses it."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class _Unloadable(Exception):
    """An error that pickles but does not load back: its one pickled
    argument is the message, and its constructor needs two."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


_TEST_PROCESS = os.getpid()


def _exit_three(*args, **kwargs):
    assert os.getpid() != _TEST_PROCESS, "drawn in the calling process"
    os._exit(3)


def _raise_unpicklable(*args, **kwargs):
    raise _Unpicklable("draw refused with a lambda")


def _raise_unloadable(*args, **kwargs):
    raise _Unloadable("draw refused", "a worker")


@pytest.mark.parametrize("draw, message", [
    (_exit_three, "RuntimeError: a replication worker exited with code 3 before it sent "
                  "its results"),
    (_raise_unpicklable, "RuntimeError: _Unpicklable: draw refused with a lambda"),
    (_raise_unloadable, "RuntimeError: _Unloadable: draw refused in a worker"),
], ids=["exits", "does-not-pickle", "does-not-load-back"])
def test_a_worker_failure_is_one_internal_error_line(monkeypatch, capfd, clt_config_file,
                                                     draw, message):
    """A forked replication worker that exits without sending its sums, here
    by os._exit(3), or raises an error that does not pickle or does not load
    back, reaches the command line as one stderr line (the exit code, or the
    error's type and message) and exit 2: no traceback from the worker, no
    worker left."""
    from specfield import _util, stats

    monkeypatch.setattr(stats, "draw_innovations", draw)
    # 256 bytes of lattice a replication: 20 replications a batch, 3 batches
    monkeypatch.setattr(_util, "_BATCH_BYTES", 512 * 10)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    assert cli.main(["clt-experiment", "--config", clt_config_file()]) == cli.INTERNAL_EXIT
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"internal error: {message}\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sequence", [";", "8;;16"])
def test_dims_sequence_refuses_an_empty_entry(ma1_spec_file, tmp_path, sequence):
    proc = run_cli("expectation", "--spec", ma1_spec_file, "--report-csv",
                   str(tmp_path / "sup.csv"), "--dims-sequence", sequence)
    _assert_one_line_refusal(proc, "--dims-sequence has an empty entry")
    assert not (tmp_path / "sup.csv").exists()


@pytest.mark.parametrize("alpha", ["inf", "-inf"])
def test_kernels_refuses_a_non_finite_alpha(alpha):
    proc = run_cli("kernels", f"--alpha={alpha}", "--n", "5")
    _assert_one_line_refusal(proc, f"--alpha must be a finite real, got {alpha}")


@pytest.mark.parametrize("n", ["0", "99999999999999999999"])
def test_kernels_refuses_an_order_outside_int64(n):
    proc = run_cli("kernels", "--alpha", "0.5", "--n", n)
    _assert_one_line_refusal(proc, f"kernel order must be a positive 64-bit integer, got {n}")


@pytest.mark.parametrize("points", ["0", "1"])
def test_expectation_refuses_a_coarse_quadrature(ma1_spec_file, points):
    """0 grid points is refused like 1, not read as an absent flag."""
    proc = run_cli("expectation", "--spec", ma1_spec_file, "--dims", "8", "--freq", "1.0",
                   "--quadrature", points)
    _assert_one_line_refusal(proc, f"quadrature grid too coarse: {points} < 4*max(v) = 32")


def test_expectation_refuses_a_quadrature_grid_beyond_the_budget(ma1_spec_file):
    proc = run_cli("expectation", "--spec", ma1_spec_file, "--dims", "8", "--freq", "1.0",
                   "--quadrature", "99999999999999999999")
    _assert_one_line_refusal(proc, "quadrature grid too large: 99999999999999999999^1 points")


# 2^26 bytes of workspace hold 2^22 complex points: 4,194,304 on one axis, 2,048 a side on two
@pytest.mark.parametrize("dim, grid, fit", [(2, str(10 ** 7), 2048), (1, str(2 ** 63), 4194304),
                                            (1, str(10 ** 20), 4194304),
                                            (1, str(10 ** 400), 4194304)],
                         ids=["2d-1e7", "1d-2^63", "1d-1e20", "1d-1e400"])
def test_expectation_refuses_a_frequency_grid_beyond_the_budget(tmp_path, capsys, dim, grid,
                                                                fit):
    """The report's frequency grid is refused by name before it is allocated,
    where a 2-d grid of 10^7 a side ran out of memory and a 1-d one past
    int64 failed inside numpy."""
    spec = tmp_path / "spec.json"
    spec.write_text(spec_to_json(first_axis_ma1(dim, REAL_GAUSSIAN, 1.0, 1.0)))
    csv_path = tmp_path / "sup.csv"
    code = cli.main(["expectation", "--spec", str(spec), "--report-csv", str(csv_path),
                     "--dims-sequence", "8;16", "--grid", grid])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err == (f"error: lambda_grid_size too large: {grid}^{dim} points exceed the "
                   f"workspace budget; at most {fit} per axis fits\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "2.5", "+2", "1_0", " 2", "\u0662"])
def test_a_worker_count_other_than_ascii_digits_is_refused(clt_config_file, capsys,
                                                          monkeypatch, threads):
    """SPECFIELD_THREADS is read as ASCII decimal digits of a count >= 1;
    Python's int() would read "1_0", " 2" and the Arabic-Indic two as 10, 2 and 2."""
    monkeypatch.setenv("SPECFIELD_THREADS", threads)
    code = cli.main(["clt-experiment", "--config", clt_config_file()])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err == f"error: SPECFIELD_THREADS must be a decimal integer >= 1, got {threads!r}\n"


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_periodogram_refuses_a_seed_outside_64_bits(ma1_spec_file, capsys, seed):
    code = cli.main(["periodogram", "--spec", ma1_spec_file, "--dims", "8", "--freq", "1.0",
                     "--seed", seed])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: seed must lie in [0, 2^64), got {seed}\n"


def test_mixing_estimate_refuses_a_wide_window_at_once(ma1_spec_file, capsys):
    """1,752,381 subsets are refused from their count, before any is listed."""
    start = time.perf_counter()
    code = cli.main(["mixing-estimate", "--spec", ma1_spec_file, "--window", "40",
                     "--set-size", "4", "--n-max", "2"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "1752381 subsets of 1 to 4 of the 81 window sites" in err
    assert elapsed < 1.0


def test_mixing_estimate_runs_a_wide_window_at_set_size_one(ma1_spec_file, capsys):
    """20,001 window sites: the covariance covers only the points that scored
    pairs use, where the whole window's would take 17.9 GiB."""
    code = cli.main(["mixing-estimate", "--spec", ma1_spec_file, "--window", "10000",
                     "--set-size", "1", "--n-max", "2"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out)["values"] == {"1": pytest.approx(0.5, abs=1e-12), "2": 0.0}


# sha256 of mixing-estimate's stdout, recorded when the search still built
# the whole window's covariance and rescanned every pair for each n
@pytest.mark.parametrize("dim, kind, taps, flags, digest", [
    (2, REAL_GAUSSIAN, [((0, 0), 1.0), ((1, 0), 1.0)], (2, 2, 3),
     "7428d24cd8e06f60dbf28184a0c69fadb219fef813fa426c9de82d57c948473a"),
    (1, REAL_GAUSSIAN, [((0,), 1.0), ((1,), 1.0)], (3, 4, 3),
     "580a18c388c21f9380b8e249deb2da31f54b14cfbc469815b2c1c2d9241dc299"),
    (1, CIRCULAR_GAUSSIAN, [((0,), 1.0), ((1,), 0.8), ((2,), 0.5)], (4, 3, 4),
     "f601c2a66c607dbc8a579a58c81ee1af6423984e150cc333d69ad4024f9075ab"),
    (2, REAL_GAUSSIAN, [((0, 0), 1.0), ((1, 0), 0.5), ((0, 1), 0.4)], (2, 2, 2),
     "f220d85751107c9b3bf3f1f04deeef79be2757ef6e927ff983dd769b3ee4f601"),
    (2, CIRCULAR_GAUSSIAN, [((0, 0), 1.0), ((1, 0), 0.5 + 0.3j), ((0, 1), -0.4j)], (1, 2, 2),
     "7d1d19a53f1927b094e34c773be16403d0913d5629c50e8f8dd205db410f1ded"),
], ids=["theory-2d-ma1", "real-1d-ma1", "circ-1d-3tap", "real-2d-3tap", "circ-2d-3tap"])
def test_mixing_estimate_bytes_are_pinned(tmp_path, capsys, dim, kind, taps, flags, digest):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_to_json(LinearFieldSpec(dim=dim, taps=dict(taps),
                                                 innovation_kind=kind)))
    window, set_size, n_max = map(str, flags)
    assert cli.main(["mixing-estimate", "--spec", str(spec), "--window", window,
                     "--set-size", set_size, "--n-max", n_max]) == 0
    out, err = capsys.readouterr()
    assert err == "" and hashlib.sha256(out.encode()).hexdigest() == digest


def test_blocking_plan_refuses_more_blocks_than_the_budget(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"values": {"4": 0.25}, "dependence_range": 3}))
    proc = run_cli("blocking-plan", "--v1", str(10 ** 18), "--profile", str(profile),
                   "--q", "0.2")
    _assert_one_line_refusal(proc, "blocking plan has p=1000000 blocks, more than the 65536")


def _real_ma1_config(clt_config_file, taps, std):
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["spec"] = {"dim": 1, "taps": [{"lag": [lag], "re": re} for lag, re in taps],
                   "innovation_kind": REAL_GAUSSIAN, "innovation_std": std}
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    return cfg


@pytest.mark.parametrize("cmd", ["clt-experiment", "miller", "negligibility"])
def test_monte_carlo_reports_bound_the_field_variance(clt_config_file, cmd):
    """A finite variance of 1e200 is refused by name before any draw; at
    exactly 1e100 the report runs with every warning an error."""
    huge = _real_ma1_config(clt_config_file, [(0, 1e100), (1, 1.0)], 1.0)
    proc = run_cli(cmd, "--config", huge)
    _assert_one_line_refusal(proc, "sum |tap|^2 = 1e+200 exceeds 1e+100")
    # 0.9999999999999999^2 * (1e50^2 + 1) rounds to 1e100 exactly
    edge = _real_ma1_config(clt_config_file, [(0, 1e50), (1, 1.0)], 0.9999999999999999)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "specfield", cmd,
                           "--config", edge], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["rng_stream"] == 5


@pytest.mark.parametrize("cmd, fit", [("clt-experiment", 1398101), ("miller", 1398101),
                                      ("negligibility", 838860)])
def test_monte_carlo_reports_refuse_a_replication_over_the_chunk_budget(clt_config_file,
                                                                        cmd, fit):
    """A 2,000,000-site box needs more than the 64 MiB chunk budget for one
    replication; the refusal names the volume and the largest one that fits."""
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["dims"] = [2_000_000]
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli(cmd, "--config", cfg)
    _assert_one_line_refusal(proc, "one replication of the 2000000-site box")
    assert f"boxes of up to {fit} sites fit" in proc.stderr


@pytest.mark.parametrize("cmd", ["clt-experiment", "miller", "negligibility"])
def test_monte_carlo_reports_refuse_a_replication_count_over_the_chunk_budget(clt_config_file,
                                                                              cmd):
    """R = 10^12 is refused in one line that names R, before any seed is drawn:
    one entry's (R, m) sums alone would need 32 TB, and the chunk budget holds
    R up to 2,097,152 at m = 2."""
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["R"] = 10 ** 12
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli(cmd, "--config", cfg)
    _assert_one_line_refusal(proc, "R = 1000000000000 replications at 2 frequencies")
    assert "R of up to 2097152 fits" in proc.stderr


def test_negligibility_refuses_an_entry_over_the_budget_before_any_draw(clt_config_file):
    """The second dims entry's one replication exceeds the chunk budget: the
    report exits 1 with one line, before the first entry is drawn."""
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    del doc["dims"]
    doc.update(dims_sequence=[[500_000], [1_000_000]], R=20)
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli("negligibility", "--config", cfg)
    _assert_one_line_refusal(proc, "one replication of the 1000000-site box")


# Fuzzing the documents: each case mutates one node of a valid document
# (the whole document included) by dropping a key, adding an unknown key, or
# replacing the value.  Sizes stay small (R <= 8, sides <= 32, lags within
# +-3), so no case allocates much.
_FUZZ_DOCS = {
    "config": ({"spec": json.loads(spec_to_json(white_noise(1, CIRCULAR_GAUSSIAN, 1.0))),
                "dims": [16], "scheme": {"base": [math.pi / 2], "m": 2, "delta": 0.25},
                "R": 8, "seed": 2024, "q": 0.2, "weights": [1.0, 0.0, 1.0, 0.0]},
               [["clt-experiment", "--config"], ["miller", "--config"],
                ["negligibility", "--config"]]),
    "spec": (_ma1_doc(), [["expectation", "--dims", "8", "--freq", "1.0", "--spec"]]),
    "profile": ({"values": {"4": 0.25}, "dependence_range": 3},
                [["blocking-plan", "--v1", "100", "--q", "0.2", "--profile"]]),
}
# every key some document reads; an added key is none of them
_KNOWN_KEYS = {"spec", "dims", "dims_sequence", "scheme", "R", "seed", "q", "weights",
               "base", "m", "delta", "axis", "dim", "taps", "innovation_kind",
               "innovation_std", "lag", "re", "im", "values", "dependence_range"}
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(-1e6, 1e6), st.text(max_size=4))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2))


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, doc
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _dotted(path) -> str:
    """A node's path as the CLI names it: ``spec.taps[0].re``."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else (f".{key}" if name else key)
    return name


@st.composite
def _mutations(draw, kind):
    """A mutated copy of the ``kind`` document, and the path of an added key or None."""
    doc = copy.deepcopy(_FUZZ_DOCS[kind][0])
    path, node = draw(st.sampled_from(list(_nodes(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    # a profile's "values" object takes any separation as a key
    op = draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "add" and isinstance(node, dict) and path != ("values",):
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in _KNOWN_KEYS))
        node[key] = draw(_VALUES)
        return doc, path + (key,)
    if op == "drop" and path and isinstance(parent, dict):
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = draw(_VALUES)
    else:
        doc = draw(_VALUES)
    return doc, None


@pytest.mark.parametrize("kind", sorted(_FUZZ_DOCS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_exit_zero_or_one_with_one_line(tmp_path, capsys, kind, data):
    """Any mutated document either runs or is refused with exit 1, empty
    stdout and one ``error:`` line; an unknown key is refused by name.  A
    warning fails the case too, because the CLI would print it to stderr."""
    doc, added = data.draw(_mutations(kind))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in _FUZZ_DOCS[kind][1]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + [str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1), err
        assert "Traceback" not in err and "internal error" not in err
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        if added is not None:
            assert code == 1 and f"unknown key {_dotted(added)!r}" in err, err


# Fuzzing the flags: each case replaces the value of one flag in a valid
# command line over a 1-d spec.  A value is one entry, or entries joined by
# commas (and by semicolons for --dims-sequence), so empty and trailing
# entries and wrong dimensions come up.
_FUZZ_COMMANDS = [
    ["kernels", "--alpha", "0.5", "--n", "5"],
    ["periodogram", "--spec", "{spec}", "--dims", "8", "--freq", "1.0", "--shift", "2",
     "--seed", "3"],
    ["expectation", "--spec", "{spec}", "--dims", "8", "--freq", "1.0", "--quadrature", "32"],
    ["expectation", "--spec", "{spec}", "--report-csv", "{csv}", "--dims-sequence", "8;16",
     "--grid", "8"],
    ["covariance", "--spec", "{spec}", "--dims", "8", "--freq", "1.0", "--freq2", "1.5"],
    ["blocking-plan", "--v1", "100", "--q", "0.2", "--profile", "{profile}"],
    ["mixing-estimate", "--spec", "{spec}", "--window", "1", "--set-size", "2", "--n-max", "3"],
]
_FUZZ_FLAGS = ["--alpha", "--dims", "--dims-sequence", "--freq", "--grid", "--n", "--n-max",
               "--q", "--quadrature", "--seed", "--set-size", "--shift", "--v1", "--window"]
_HUGE = [str(2 ** 63), str(10 ** 20), str(-2 ** 63 - 1), "-" + str(10 ** 20),
         str(10 ** 400)]
_ENTRIES = ["nan", "inf", "-inf", "x", "", "0", "-1", "-7", "1.5", "1e400", "3", "8"]


@st.composite
def _flag_values(draw, flag):
    entry = st.sampled_from(_ENTRIES + _HUGE)
    value = st.one_of(entry, st.lists(entry, min_size=2, max_size=3).map(",".join))
    if flag == "--dims-sequence":
        value = st.one_of(value, st.lists(value, min_size=2, max_size=3).map(";".join))
    return draw(value)


@pytest.mark.parametrize("flag", _FUZZ_FLAGS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_flags_exit_zero_one_or_64_with_one_line(tmp_path, capsys, flag, data):
    """Any value of a flag either runs, is refused with exit 1, or is a usage
    error with exit 64; a failure prints one stderr line and nothing on
    stdout, a success nothing on stderr, and a warning fails the case."""
    files = {"spec": tmp_path / "spec.json", "profile": tmp_path / "profile.json",
             "csv": tmp_path / "sup.csv"}
    files["spec"].write_text(json.dumps(_ma1_doc()))
    files["profile"].write_text(json.dumps({"values": {"4": 0.25}, "dependence_range": 3}))
    value = data.draw(_flag_values(flag))
    for command in _FUZZ_COMMANDS:
        if flag not in command:
            continue
        argv = [a.format(**files) for a in command]
        argv[argv.index(flag) + 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 64), (argv, err)
        if code:
            assert out == "" and err.count("\n") == 1 and "error: " in err, (argv, err)
        else:
            assert err == "", (argv, err)
